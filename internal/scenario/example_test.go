package scenario_test

import (
	"fmt"
	"log"
	"time"

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
