package scenario_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/integration"
	"repro/internal/scenario"
)

// The deterministic scenario engine twice over:
//
//  1. A custom inline scenario — a minimal churn + zero-day timeline —
//     showing that a scenario is just a Timeline: a Go literal here, the
//     same grammar as the JSON files `scenarios replay` runs.
//  2. A library scenario (flash-churn) run by name, showing the registry
//     and the replay guarantee: the same (name, seed) always produces the
//     same trace, byte for byte.
func ExampleRun() {
	// --- 1. a custom scenario ---
	at := func(d time.Duration) scenario.Duration { return scenario.Duration(d) }
	day := 24 * time.Hour
	tl := &scenario.Timeline{
		Name:    "example-inline",
		Title:   "three joins, one zero-day, one probe",
		Horizon: at(4 * day),
		Tick:    at(day),
	}
	for i, os := range []string{"linux", "bsd", "illumos"} {
		tl.Events = append(tl.Events, scenario.Event{
			Op: scenario.OpJoin, At: at(time.Duration(i) * time.Hour), ID: fmt.Sprintf("r-%d", i),
			Config: []scenario.ComponentSpec{{Class: "operating-system", Name: os, Version: "1"}},
			Power:  10, PatchLatency: at(12 * time.Hour),
		})
	}
	tl.Events = append(tl.Events,
		scenario.Event{Op: scenario.OpDisclose, At: at(day), Vuln: &scenario.VulnSpec{
			ID: "CVE-EX-0001", Class: "operating-system", Product: "linux", Version: "1",
			Disclosed: at(day), PatchAt: at(2 * day), Severity: 1,
		}},
		scenario.Event{Op: scenario.OpProbe, At: at(36 * time.Hour), Strategy: &scenario.StrategySpec{Kind: "exploit", Budget: 1}},
	)

	res, err := scenario.Run(tl.Def(), 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inline scenario: %d trace records (derived seed %d)\n", len(res.Records), res.Seed)
	for _, rec := range res.Records {
		line := fmt.Sprintf("  t=%-8s %-8s safe=%-5t H=%.3fb Σf=%.2f", rec.T, rec.Event, rec.Safe, rec.Entropy, rec.Compromised)
		if rec.Detail != "" {
			line += "  " + rec.Detail
		}
		if rec.AdvStrategy != "" {
			line += fmt.Sprintf("  [%s -> %.2f breaks=%t]", rec.AdvStrategy, rec.AdvFraction, rec.AdvBreaks)
		}
		fmt.Println(line)
	}

	// --- 2. a library scenario, replayed ---
	// Registered scenarios resolve through Lookup and run through the same
	// Run entrypoint as the inline timeline's def.
	flashChurn, ok := scenario.Lookup("flash-churn")
	if !ok {
		log.Fatal("flash-churn not registered")
	}
	first, err := scenario.Run(flashChurn, 42)
	if err != nil {
		log.Fatal(err)
	}
	again, err := scenario.Run(flashChurn, 42)
	if err != nil {
		log.Fatal(err)
	}
	identical := len(first.Records) == len(again.Records)
	for i := 0; identical && i < len(first.Records); i++ {
		a, errA := first.Records[i].JSON()
		b, errB := again.Records[i].JSON()
		if errA != nil || errB != nil {
			log.Fatal(errA, errB)
		}
		identical = a == b
	}
	s := first.Summary()
	fmt.Printf("\nflash-churn @ seed 42: %d records, min entropy %.3fb, worst Σf %.3f at %v, replay byte-identical: %t\n",
		s.Records, s.MinEntropy, s.MaxComp, s.MaxCompAt, identical)
	fmt.Println("(the scenarios CLI lists and runs the full library: go run ./cmd/scenarios list)")
	// Output:
	// inline scenario: 12 trace records (derived seed -1131579766565812618)
	//   t=0s       join     safe=true  H=0.000b Σf=0.00  r-0 cfg=1edfec75 power=10
	//   t=0s       tick     safe=true  H=0.000b Σf=0.00
	//   t=1h0m0s   join     safe=true  H=1.000b Σf=0.00  r-1 cfg=3e18983f power=10
	//   t=2h0m0s   join     safe=true  H=1.585b Σf=0.00  r-2 cfg=83f00e11 power=10
	//   t=24h0m0s  disclose safe=true  H=1.585b Σf=0.33  CVE-EX-0001 operating-system/linux@1 sev=1 patch=48h0m0s
	//   t=24h0m0s  tick     safe=true  H=1.585b Σf=0.33
	//   t=36h0m0s  probe    safe=true  H=1.585b Σf=0.33  [exploit(k=1) -> 0.33 breaks=false]
	//   t=48h0m0s  patch    safe=true  H=1.585b Σf=0.33  CVE-EX-0001 patch ships; windows close per replica latency
	//   t=48h0m0s  tick     safe=true  H=1.585b Σf=0.33
	//   t=72h0m0s  tick     safe=true  H=1.585b Σf=0.00
	//   t=96h0m0s  tick     safe=true  H=1.585b Σf=0.00
	//   t=96h0m0s  final    safe=true  H=1.585b Σf=0.00
	//
	// flash-churn @ seed 42: 133 records, min entropy 0.000b, worst Σf 0.511 at 96h0m0s, replay byte-identical: true
	// (the scenarios CLI lists and runs the full library: go run ./cmd/scenarios list)
}

// The generative side of the scenario engine end to end:
//
//  1. Generate — a timeline is a pure function of (profile, seed, index):
//     regenerate the same address and the JSON is byte-identical.
//  2. Sweep — run a batch of generated timelines across the profiles,
//     check every run against the default invariants, and aggregate
//     per-profile percentiles. The report is byte-identical for every
//     worker count.
//  3. Shrink — point the sweep at an invariant that does fail
//     (never-unsafe: "no record ever breaches the threshold") and ddmin
//     the first violating timeline down to a minimal witness.
func Example_sweep() {
	// --- 1. generation is addressing, not sampling ---
	profile, ok := scenario.LookupProfile("disclosure-storm")
	if !ok {
		log.Fatal("disclosure-storm profile not registered")
	}
	tl := profile.Generate(42, 0)
	a, err := tl.MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	b, err := profile.Generate(42, 0).MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %s: %d events over %s, regeneration byte-identical: %t\n",
		tl.Name, len(tl.Events), tl.Horizon, bytes.Equal(a, b))

	// --- 2. a sweep with the default invariants ---
	// Run i is Profiles()[i%P].Generate(seed, i/P); the report carries no
	// wall-clock data, so the same options reproduce the same bytes at any
	// worker count.
	report, err := scenario.Sweep(context.Background(), scenario.SweepOptions{
		Runs: 40, Seed: 42, Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsweep: %d runs across %d profiles, invariants %v\n",
		report.Runs, len(report.Profiles), report.Invariants)
	for _, p := range report.Profiles {
		fmt.Printf("  %-18s runs=%-3d unsafe=%-3d violations=%d  max Σf p50=%.3f p99=%.3f\n",
			p.Profile, p.Runs, p.UnsafeRuns, p.Violations, p.MaxComp.P50, p.MaxComp.P99)
	}
	fmt.Printf("  violating runs: %d (the default invariants are expected to hold)\n", len(report.Violating))

	// --- 3. make one fail, then shrink the witness ---
	// never-unsafe is not a default invariant — scenarios breach the
	// threshold all the time; that is the paper's point — which makes it
	// the canonical shrink target.
	target, _ := scenario.InvariantByName("never-unsafe")
	res, err := scenario.Shrink(tl, 42, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshrink %s against %s: %d -> %d events in %d candidate runs\n",
		tl.Name, target.Name, res.OriginalEvents, res.Events, res.Runs)
	fmt.Println("minimal timeline still violating never-unsafe:")
	min, err := res.Timeline.MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(string(min))
	fmt.Printf("first violation: %s\n", res.Violations[0].Detail)
	fmt.Println("\n(the scenarios CLI drives the same path: scenarios sweep -n 200 -seed 42; scenarios shrink timeline.json)")
	// Output:
	// generated gen-disclosure-storm-42-0000: 36 events over 360h0m0s, regeneration byte-identical: true
	//
	// sweep: 40 runs across 5 profiles, invariants [safe-consistency worst-dominates patch-monotone oracle-agreement view-liveness]
	//   churn-heavy        runs=8   unsafe=0   violations=0  max Σf p50=0.210 p99=0.332
	//   disclosure-storm   runs=8   unsafe=8   violations=0  max Σf p50=0.730 p99=0.961
	//   partition-flap     runs=8   unsafe=2   violations=0  max Σf p50=0.196 p99=0.433
	//   adaptive-adversary runs=8   unsafe=4   violations=0  max Σf p50=0.307 p99=0.494
	//   lossy-wire         runs=8   unsafe=0   violations=0  max Σf p50=0.000 p99=0.000
	//   violating runs: 0 (the default invariants are expected to hold)
	//
	// shrink gen-disclosure-storm-42-0000 against never-unsafe: 36 -> 2 events in 38 candidate runs
	// minimal timeline still violating never-unsafe:
	// {
	//   "name": "gen-disclosure-storm-42-0000",
	//   "title": "a stable fleet weathering a dense burst of disclosures",
	//   "tags": [
	//     "generated",
	//     "disclosure-storm"
	//   ],
	//   "horizon": "360h0m0s",
	//   "tick": "12h0m0s",
	//   "events": [
	//     {
	//       "op": "join",
	//       "at": "4h0m0s",
	//       "id": "g-01",
	//       "config": [
	//         {
	//           "class": "operating-system",
	//           "name": "linux",
	//           "version": "6.1"
	//         }
	//       ],
	//       "power": 1
	//     },
	//     {
	//       "op": "disclose",
	//       "at": "24h0m0s",
	//       "vuln": {
	//         "id": "CVE-GEN-0000",
	//         "class": "operating-system",
	//         "product": "linux",
	//         "disclosed": "24h0m0s",
	//         "patch_at": "83h0m0s",
	//         "severity": 1
	//       }
	//     }
	//   ]
	// }
	// first violation: unsafe at 24h0m0s: Σf=1 > threshold 0.3333333333333333
	//
	// (the scenarios CLI drives the same path: scenarios sweep -n 200 -seed 42; scenarios shrink timeline.json)
}

// The closed loop between the analytic monitor and a real BFT cluster
// twice over:
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
func Example() {
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
		integration.PrintTrimmed(line + "\n")
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
	// Output:
	// inline live scenario: 30 trace records
	//   t=1h0m0s   live-start commits=0
	//   t=3h0m0.5s live-check commits=5  liveness: probe-0001 predicted=true observed=true committers=5 diverged=false
	//   t=5h0m0.5s live-check commits=12 liveness: probe-0002 predicted=true observed=true committers=7 diverged=false
	//   t=7h0m0.5s live-check commits=12 liveness: probe-0003 predicted=false observed=false committers=0 diverged=false
	//   t=9h0m0.5s live-check commits=19 liveness: probe-0004 predicted=true observed=true committers=7 diverged=false
	//   t=11h0m0.5s live-check commits=26 liveness: probe-0005 predicted=true observed=true committers=7 diverged=false
	//   t=12h0m0s  final      commits=26
	// cross-checks: 5, divergences: 0 (the paper's prediction, tested on the wire)
	//
	// live-reactive-recovery @ seed 42: 73 records, breaches=1 recoveries=1 max TTR=6h0m0s
	//   breach  t=24h0m0s  disclose (CVE-LIVE-0001 operating-system/ubuntu@22.04 sev=1 patch=48h0m0s)
	//   recover t=30h0m0s  TTR=6h0m0s
	//           recovery round: r-00->f969f16f r-02->de812cdd r-04->50fd798a r-00 rejuvenated r-02 rejuvenated r-04 rejuvenated
	//   live-attack t=120h0m0s equivocation skipped: implants=0 primary-implanted=false (predict violation=false)
	//   live-verdict t=120h0m0.5s safety: violation predicted=false observed=false diverged=false
	// (run the full live set: go run ./cmd/scenarios run -live)
}
