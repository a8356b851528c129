// Command experiments regenerates every table and figure series of the
// paper reproduction (-list prints the per-experiment index) and prints
// them as aligned text tables, or as markdown with -markdown. It drives
// off the experiment registry
// (internal/experiment), the same index bench_test.go times, so the CLI
// and the benchmarks cannot drift.
//
// Usage:
//
//	experiments                  # all experiments, text tables
//	experiments -list            # enumerate ids, titles and tags
//	experiments -markdown        # markdown output
//	experiments -only F1,T1      # a subset by experiment id
//	experiments -tag mitigation  # a subset by tag
//	experiments -seed 11 -trials 5000 -scale 500
//	experiments -parallel 0      # regenerate across all cores
//
// -parallel N is one worker budget, divided between the two levels of
// parallelism: experiments run concurrently on min(N, selected) workers
// and each experiment spreads its Monte Carlo trials over the remaining
// share (so -only X4 -parallel 8 gives one experiment 8 trial workers,
// while -parallel 8 over all experiments runs 8 of them at a time).
// Parallel output is buffered per experiment and printed in selection
// order; trial seeds never depend on scheduling — the bytes are identical
// to a serial run with the same parameters. A serial run (-parallel 1,
// the default) streams each table as it completes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/experiment"
	"repro/internal/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		markdown = flag.Bool("markdown", false, "emit markdown tables")
		list     = flag.Bool("list", false, "list registered experiments and exit")
		only     = flag.String("only", "", "comma-separated experiment ids to run (default all)")
		tag      = flag.String("tag", "", "run only experiments carrying this tag")
		seed     = flag.Int64("seed", experiment.DefaultParams().Seed, "pseudo-randomness seed")
		trials   = flag.Int("trials", experiment.DefaultParams().Trials, "Monte Carlo trial count")
		scale    = flag.Int("scale", experiment.DefaultParams().Scale, "population/sweep scale knob")
		parallel = flag.Int("parallel", 1, "worker goroutines for experiments and Monte Carlo trials (0 = all cores, 1 = serial)")
	)
	flag.Parse()

	if *list {
		fmt.Print(listTable().String())
		return
	}
	if *parallel < 0 {
		log.Fatalf("-parallel %d is negative", *parallel)
	}
	workers := *parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	selected, err := selectExperiments(*only, *tag)
	if err != nil {
		log.Fatal(err)
	}
	// One budget, two levels: concurrent experiments first, leftover
	// workers to each experiment's Monte Carlo trials.
	expWorkers := workers
	if expWorkers > len(selected) {
		expWorkers = len(selected)
	}
	params := experiment.Params{Seed: *seed, Trials: *trials, Scale: *scale, Workers: workers / expWorkers}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if expWorkers <= 1 {
		// Serial: stream each table as it completes so an error or an
		// interrupt late in the run does not discard finished output.
		for _, e := range selected {
			tab, _, err := e.Run(ctx, params)
			if err != nil {
				log.Fatalf("%s: %v", e.ID, err)
			}
			fmt.Print(render([]experiment.Result{{Experiment: e, Table: tab}}, *markdown))
		}
		return
	}
	results, err := experiment.RunConcurrent(ctx, selected, params, expWorkers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(render(results, *markdown))
}

// render formats the results in their (deterministic) selection order, so
// a -parallel run prints the same bytes as a serial one.
func render(results []experiment.Result, markdown bool) string {
	var b strings.Builder
	for _, res := range results {
		if markdown {
			fmt.Fprintf(&b, "### %s\n\n%s\n", res.Experiment.ID, res.Table.Markdown())
		} else {
			fmt.Fprintf(&b, "[%s]\n%s\n", res.Experiment.ID, res.Table.String())
		}
	}
	return b.String()
}

// listTable renders the registry index.
func listTable() *metrics.Table {
	tab := metrics.NewTable("registered experiments", "id", "title", "tags")
	for _, e := range experiment.All() {
		tab.AddRowf(e.ID, e.Title, strings.Join(e.Tags, ","))
	}
	tab.AddNote("run a subset with -only id,id or -tag <tag>; tags: %s", strings.Join(experiment.Tags(), ", "))
	return tab
}

// selectExperiments resolves the -only and -tag filters against the
// registry. Unknown ids and tags are hard errors listing what exists, so
// a typo cannot silently skip an experiment.
func selectExperiments(only, tag string) ([]experiment.Experiment, error) {
	pool := experiment.All()
	if tag != "" {
		pool = experiment.WithTag(tag)
		if len(pool) == 0 {
			return nil, fmt.Errorf("no experiments tagged %q; available tags: %s",
				tag, strings.Join(experiment.Tags(), ", "))
		}
	}
	if only == "" {
		return pool, nil
	}
	inPool := make(map[string]bool, len(pool))
	for _, e := range pool {
		inPool[e.ID] = true
	}
	var out []experiment.Experiment
	seen := make(map[string]bool)
	for _, raw := range strings.Split(only, ",") {
		id := strings.TrimSpace(raw)
		if id == "" {
			continue
		}
		e, ok := experiment.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment id %q; available: %s",
				id, strings.Join(experiment.IDs(), ", "))
		}
		if tag != "" && !inPool[e.ID] {
			return nil, fmt.Errorf("experiment %s does not carry tag %q", e.ID, tag)
		}
		if !seen[e.ID] {
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only selected no experiments; available: %s",
			strings.Join(experiment.IDs(), ", "))
	}
	return out, nil
}
