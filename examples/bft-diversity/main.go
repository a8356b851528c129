// bft-diversity demonstrates the paper's central safety argument on a live
// (simulated) BFT cluster: the same zero-day, hitting a 12-replica cluster,
// either breaks safety or doesn't depending only on configuration
// diversity.
//
//   - Monoculture-heavy cluster (κ=2): the vulnerable configuration carries
//     6/12 of the voting power (> 1/3). The compromised replicas equivocate
//     and double-vote — two conflicting values commit. Safety violated.
//   - Diverse cluster (κ=6): the same fault compromises only 2/12 (< 1/3).
//     The attack fizzles; agreement holds.
//
// Run with: go run ./examples/bft-diversity
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bftlive"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
)

const n = 12

func main() {
	log.SetFlags(0)
	fmt.Printf("one zero-day vs two 12-replica BFT clusters (%s family, f = %.3f of voting power)\n",
		core.BFT.Name, core.BFT.Tolerance)
	fmt.Println()
	runCase("monoculture-heavy (κ=2: 6 replicas share the vulnerable config)", 2)
	fmt.Println()
	runCase("diverse (κ=6: only 2 replicas share the vulnerable config)", 6)
}

// runCase spreads n replicas over kappa configurations round-robin; the
// zero-day hits configuration 0 (which includes the view-0 primary).
func runCase(title string, kappa int) {
	fmt.Println("##", title)
	sched := sim.NewScheduler(2024)
	net, err := simnet.New(sched, simnet.UniformLatency{Min: time.Millisecond, Max: 10 * time.Millisecond}, 0)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := bftlive.NewSimCluster(net, n) // one vote per replica
	if err != nil {
		log.Fatal(err)
	}

	var compromised []int
	for i := 0; i < n; i++ {
		if i%kappa == 0 { // configuration 0 is the vulnerable one
			compromised = append(compromised, i)
			if err := cluster.SetBehavior(i, bftlive.Promiscuous); err != nil {
				log.Fatal(err)
			}
		}
	}
	frac := float64(len(compromised)) / n
	verdict := "within tolerance — safety predicted to hold"
	if frac > core.BFT.Tolerance {
		verdict = "exceeds tolerance — safety predicted to break"
	}
	fmt.Printf("compromised replicas: %v (%d/%d = %.0f%% of voting power; %s)\n",
		compromised, len(compromised), n, 100*frac, verdict)

	// The compromised primary equivocates: value A to one half of the
	// honest replicas, value B to the other; colluders vote for both.
	if err := cluster.EquivocateNext([]byte("pay merchant"), []byte("pay attacker")); err != nil {
		log.Fatal(err)
	}
	if err := sched.Run(time.Minute); err != nil {
		log.Fatal(err)
	}

	if v := cluster.Violation(); v != nil {
		fmt.Printf("SAFETY VIOLATED: %v\n", v)
		fmt.Println("two honest replicas committed conflicting values at the same slot")
	} else {
		fmt.Println("safety held: no conflicting commits; the equivocation could not gather two quorums")
	}
}
