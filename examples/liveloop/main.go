// liveloop walks through the closed loop between the analytic monitor
// and a real BFT cluster (internal/liveloop) twice over:
//
//  1. A custom inline live scenario: a timeline whose `live` block boots
//     seven replicas running actual consensus over internal/simnet on the
//     scenario clock while the harness cross-checks every liveness
//     prediction against observed commits — through a partition that
//     breaks quorum and one that doesn't.
//  2. The library's reactive-recovery scenario (live-reactive-recovery)
//     run by name: a monoculture CVE breaches the threshold, the
//     planner migrates the implanted trio to clean configs, recovery
//     rejuvenates them, and the trace records the time-to-recover.
//
// Run with: go run ./examples/liveloop
package main

import (
	"fmt"
	"log"
	"time"

	_ "repro/internal/liveloop" // registers the live harness and the live library
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)

	// --- 1. a custom live scenario ---
	at := func(d time.Duration) scenario.Duration { return scenario.Duration(d) }
	tl := &scenario.Timeline{
		Name:    "example-live",
		Title:   "live cluster, two partitions, predictions checked on the wire",
		Horizon: at(12 * time.Hour),
		Tick:    at(2 * time.Hour),
		// Boot the cluster at 1h; probe it every 2h. Each probe freezes
		// the monitor-side liveness prediction, submits a real request,
		// and the paired check compares prediction to observed commits.
		Live: &scenario.LiveSpec{StartAt: at(time.Hour), ProbeEvery: at(2 * time.Hour)},
	}
	// Seven diverse replicas: n=7 tolerates f=2, quorum is 5.
	for i, os := range []string{"linux", "bsd", "illumos", "haiku", "plan9", "serenity", "redox"} {
		tl.Events = append(tl.Events, scenario.Event{
			Op: scenario.OpJoin, ID: fmt.Sprintf("r-%02d", i),
			Config: []scenario.ComponentSpec{{Class: "operating-system", Name: os, Version: "1"}},
			Power:  1, PatchLatency: at(time.Hour),
		})
	}
	tl.Events = append(tl.Events,
		// Cut two replicas away: 5 remain with the primary — exactly
		// quorum, so commits must still flow.
		scenario.Event{Op: scenario.OpPartition, At: at(2*time.Hour + 30*time.Minute), IDs: []string{"r-05", "r-06"}},
		scenario.Event{Op: scenario.OpHeal, At: at(4*time.Hour + 30*time.Minute)},
		// Cut three away: 4 < 5, the prediction flips to "stall" and
		// the wire must agree.
		scenario.Event{Op: scenario.OpPartition, At: at(6*time.Hour + 30*time.Minute), IDs: []string{"r-04", "r-05", "r-06"}},
		scenario.Event{Op: scenario.OpHeal, At: at(8*time.Hour + 30*time.Minute)},
	)

	res, err := scenario.Run(tl.Def(), 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inline live scenario: %d trace records\n", len(res.Records))
	for _, rec := range res.Records {
		if rec.Check == "" && rec.Event != "live-start" && rec.Event != "final" {
			continue
		}
		line := fmt.Sprintf("  t=%-8s %-10s", rec.T, rec.Event)
		if rec.Live {
			line += fmt.Sprintf(" commits=%-2d", rec.LiveCommits)
		}
		if rec.Check != "" {
			line += fmt.Sprintf(" %s: %s diverged=%t", rec.Check, rec.CheckDetail, rec.Divergence)
		}
		fmt.Println(line)
	}
	sum := res.Summary()
	fmt.Printf("cross-checks: %d, divergences: %d (the paper's prediction, tested on the wire)\n",
		sum.Checks, sum.Divergences)

	// --- 2. the reactive-recovery library scenario ---
	reactive, ok := scenario.Lookup("live-reactive-recovery")
	if !ok {
		log.Fatal("live-reactive-recovery not registered")
	}
	rec, err := scenario.Run(reactive, 42)
	if err != nil {
		log.Fatal(err)
	}
	s := rec.Summary()
	fmt.Printf("\nlive-reactive-recovery @ seed 42: %d records, breaches=%d recoveries=%d max TTR=%v\n",
		s.Records, s.Breaches, s.Recoveries, s.MaxTTR)
	for _, r := range rec.Records {
		switch {
		case r.BreachAtNanos != 0 && r.RecoverAtNanos == 0 && r.Event != "live-react":
			fmt.Printf("  breach  t=%-8s %s (%s)\n", r.T, r.Event, r.Detail)
		case r.RecoverAtNanos != 0:
			fmt.Printf("  recover t=%-8s TTR=%v\n", r.T, time.Duration(r.RecoverNanos))
			fmt.Printf("          %s\n", r.Detail)
		case r.Event == "live-attack":
			fmt.Printf("  %s t=%-8s %s\n", r.Event, r.T, r.Detail)
		case r.Event == "live-verdict":
			fmt.Printf("  %s t=%-8s %s: %s diverged=%t\n", r.Event, r.T, r.Check, r.CheckDetail, r.Divergence)
		}
	}
	fmt.Println("(run the full live set: go run ./cmd/scenarios run -live)")
}
