// Command assessbench runs the assessment scale ladder and writes the
// committed BENCH_assess.json: ns/op for the flat (pre-bucketing) cold
// path, the bucketed cold rebuild, the O(Δ) incremental path, the cached
// path and the mutate-then-worst-window path, and the live heap a tenant
// keeps per replica, at 1k/10k/100k (and with -full 1M) replicas × 50/500
// vulnerabilities.
//
// Usage:
//
//	assessbench                      # CI-sized ladder (≤100k replicas)
//	assessbench -full                # adds the 1M-replica rungs
//	assessbench -out BENCH_assess.json -budget 200ms
//
// The table printed to stdout and the JSON written to -out carry the same
// numbers; CI uploads the JSON as an artifact, and the README performance
// table is regenerated from a -full run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/assessbench"
)

type report struct {
	Schema string                    `json:"schema"`
	GoOS   string                    `json:"goos"`
	GoArch string                    `json:"goarch"`
	Rungs  []assessbench.Measurement `json:"rungs"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("assessbench: ")
	var (
		full   = flag.Bool("full", false, "include the 1M-replica rungs")
		out    = flag.String("out", "BENCH_assess.json", "JSON report path (empty = skip)")
		budget = flag.Duration("budget", 150*time.Millisecond, "timed-loop budget per path per rung")
	)
	flag.Parse()

	rungs := assessbench.DefaultRungs()
	if *full {
		rungs = assessbench.FullRungs()
	}
	rep := report{Schema: "assess-ladder/v3", GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	fmt.Printf("%10s %6s %14s %14s %14s %14s %14s %10s %12s\n",
		"replicas", "vulns", "flat", "cold", "incremental", "cached", "worst", "inc-speedup", "B/replica")
	for _, r := range rungs {
		m, err := assessbench.MeasureRung(r, *budget)
		if err != nil {
			log.Fatalf("rung %+v: %v", r, err)
		}
		rep.Rungs = append(rep.Rungs, m)
		fmt.Printf("%10d %6d %14s %14s %14s %14s %14s %9.0fx %12.1f\n",
			m.Replicas, m.Vulns,
			ns(m.FlatNs), ns(m.ColdNs), ns(m.IncrementalNs), ns(m.CachedNs), ns(m.WorstNs),
			m.SpeedupIncremental, m.ResidentBytes)
	}
	if *out == "" {
		return
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d rungs)", *out, len(rep.Rungs))
}

func ns(v float64) string {
	return time.Duration(v).Round(100 * time.Nanosecond).String()
}
