// Command chainsim drives the Nakamoto simulator: full-network mining with
// the Example 1 pool snapshot (or a uniform fleet), fork-rate reporting,
// and double-spend attack evaluation for compromised-pool scenarios.
//
// Usage:
//
//	chainsim -blocks 2000                      # snapshot pools, chain stats
//	chainsim -uniform 50 -propagation 10s      # 50 equal miners, slow network
//	chainsim -doublespend -k 2 -z 6            # attack after compromising 2 pools
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nakamoto"
	"repro/internal/pooldata"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chainsim: ")
	var (
		blocks      = flag.Int("blocks", 1000, "blocks to mine")
		uniform     = flag.Int("uniform", 0, "use N equal miners instead of the Bitcoin snapshot")
		interval    = flag.Duration("interval", 10*time.Minute, "expected block interval")
		propagation = flag.Duration("propagation", 5*time.Second, "block propagation delay")
		seed        = flag.Int64("seed", 1, "simulation seed")
		doubleSpend = flag.Bool("doublespend", false, "evaluate a double-spend instead of mining stats")
		k           = flag.Int("k", 2, "pools compromised (doublespend mode)")
		z           = flag.Int("z", 6, "confirmations (doublespend mode)")
		trials      = flag.Int("trials", 100000, "Monte Carlo trials (doublespend mode)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel between stages; the simulation kernels are
	// uninterruptible, so the check sits at each stage boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	pools := snapshotPools()
	if *uniform > 0 {
		pools = uniformPools(*uniform)
	}

	if *doubleSpend {
		runDoubleSpend(ctx, pools, *k, *z, *trials, *seed)
		return
	}

	res, err := nakamoto.Simulate(nakamoto.Config{
		Pools:         pools,
		BlockInterval: *interval,
		Propagation:   *propagation,
		Seed:          *seed,
	}, *blocks)
	if err != nil {
		log.Fatal(err)
	}
	if ctx.Err() != nil {
		log.Fatal("interrupted")
	}
	tab := metrics.NewTable("mining simulation", "metric", "value")
	tab.AddRowf("blocks mined", res.TotalBlocks)
	tab.AddRowf("main chain length", res.MainChainLength)
	tab.AddRowf("stale blocks", res.StaleBlocks)
	tab.AddRowf("fork rate", res.ForkRate)
	fmt.Print(tab.String())

	shares := metrics.NewTable("best-chain blocks by pool", "pool", "blocks", "share")
	for _, p := range pools {
		n := res.BlocksByPool[p.Name]
		if n == 0 {
			continue
		}
		shares.AddRowf(p.Name, n, float64(n)/float64(res.MainChainLength))
	}
	fmt.Print("\n" + shares.String())
}

func runDoubleSpend(ctx context.Context, pools []nakamoto.Pool, k, z, trials int, seed int64) {
	q, err := nakamoto.CompromisedShare(pools, k)
	if err != nil {
		log.Fatal(err)
	}
	tab := metrics.NewTable("double-spend evaluation", "metric", "value")
	tab.AddRowf("pools compromised", k)
	tab.AddRowf("attacker hash share q", q)
	tab.AddRowf("confirmations z", z)
	// The Nakamoto family's tolerance, selected by value rather than a
	// hard-coded constant: above it the attacker out-mines the network.
	if q >= core.Nakamoto.Tolerance {
		tab.AddRowf("success probability", 1.0)
		tab.AddNote("q >= %s tolerance %.2f: the attacker out-mines the network; success is certain",
			core.Nakamoto.Name, core.Nakamoto.Tolerance)
		fmt.Print(tab.String())
		return
	}
	exact, err := nakamoto.DoubleSpendProbabilityExact(q, z)
	if err != nil {
		log.Fatal(err)
	}
	approx, err := nakamoto.DoubleSpendProbability(q, z)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := nakamoto.SimulateDoubleSpend(rand.New(rand.NewSource(seed)), q, z, trials)
	if err != nil {
		log.Fatal(err)
	}
	if ctx.Err() != nil {
		log.Fatal("interrupted")
	}
	tab.AddRowf("P success (exact race)", exact)
	tab.AddRowf("P success (Nakamoto Poisson)", approx)
	tab.AddRowf("P success (simulated)", sim)
	fmt.Print(tab.String())
}

func snapshotPools() []nakamoto.Pool {
	pools := make([]nakamoto.Pool, 0, 17)
	for _, p := range pooldata.BitcoinSnapshot() {
		pools = append(pools, nakamoto.Pool{Name: p.Name, Power: p.Share})
	}
	return pools
}

func uniformPools(n int) []nakamoto.Pool {
	pools := make([]nakamoto.Pool, n)
	for i := range pools {
		pools[i] = nakamoto.Pool{Name: fmt.Sprintf("miner-%03d", i), Power: 1}
	}
	return pools
}
