// Command scenarios runs the named scenario library and the generative
// sweep (internal/scenario): deterministic churn + disclosure + adversary
// timelines on virtual time, assessed by the core monitor at every event.
//
// Usage:
//
//	scenarios list                       # registry + generator profiles
//	scenarios run [name...] -seed 42     # summary table (or -json / -csv)
//	scenarios run -live -seed 42 -json   # the live-loop scenarios only
//	scenarios sweep -n 1000 -seed 42     # generate, run, check invariants
//	scenarios sweep -cpuprofile cpu.prof -memprofile mem.prof   # and profile the sweep
//	scenarios gen -profile churn-heavy -index 3   # print one timeline JSON
//	scenarios replay timeline.json -json # run a timeline file's trace
//	scenarios shrink timeline.json       # minimize a violating timeline
//
// Determinism contract: identical (selection, -seed) produce byte-identical
// output for every -parallel setting. Per-scenario seeds derive from
// (seed, scenario name) — never from scheduling — and parallel runs buffer
// per-scenario output and print in selection order. Generated timelines are
// pure functions of (profile, seed, index). CI enforces both by diffing
// repeated runs.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sim"

	// The live-loop library registers the live-* scenarios at init time.
	_ "repro/internal/liveloop"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scenarios: ")
	commands := map[string]func(args []string){
		"list": cmdList, "run": cmdRun, "sweep": cmdSweep,
		"gen": cmdGen, "replay": cmdReplay, "shrink": cmdShrink,
	}
	if len(os.Args) > 1 {
		if cmd, ok := commands[os.Args[1]]; ok {
			cmd(os.Args[2:])
			return
		}
	}
	fmt.Fprintln(os.Stderr, "usage: scenarios list|run|sweep|gen|replay|shrink [flags] (each subcommand takes -h)")
	os.Exit(2)
}

// --- shared flag groups ---

// seedFlag registers the base-seed flag common to every subcommand.
func seedFlag(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 7, "base seed; everything derives from (seed, name)")
}

// parallelFlag registers the worker-count flag shared by run and sweep.
func parallelFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 1, "concurrent runs (0 = all cores, 1 = serial)")
}

// traceFlags registers the output-encoding flags shared by run and replay.
func traceFlags(fs *flag.FlagSet) (jsonOut, csvOut *bool) {
	return fs.Bool("json", false, "emit the trace as JSON lines"),
		fs.Bool("csv", false, "emit the trace as CSV")
}

func pickMode(jsonOut, csvOut bool) (renderMode, error) {
	if jsonOut && csvOut {
		return modeSummary, fmt.Errorf("-json and -csv are mutually exclusive")
	}
	switch {
	case jsonOut:
		return modeJSON, nil
	case csvOut:
		return modeCSV, nil
	default:
		return modeSummary, nil
	}
}

func workersFor(parallel int) int {
	if parallel < 0 {
		log.Fatalf("-parallel %d is negative", parallel)
	}
	return parallel
}

func parseFlags(fs *flag.FlagSet, args []string) {
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: scenarios %s [flags]\n", fs.Name())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
}

// parseMixed parses flags and positional operands in any order ("replay
// file.json -json" and "replay -json file.json" both work; stock flag
// parsing stops at the first operand). Returns the positionals in order.
func parseMixed(fs *flag.FlagSet, args []string) []string {
	parseFlags(fs, args)
	var positional []string
	for fs.NArg() > 0 {
		rest := fs.Args()
		positional = append(positional, rest[0])
		if err := fs.Parse(rest[1:]); err != nil {
			os.Exit(2)
		}
	}
	return positional
}

// --- subcommands ---

// cmdList prints the scenario registry and the generator profiles.
func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	parseFlags(fs, args)
	fmt.Print(listTable().String())
	fmt.Print(profileTable().String())
}

// cmdRun runs registered scenarios: positional names (or -run) select, and
// the shared trace flags pick the encoding.
func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	run := fs.String("run", "all", "comma-separated scenario names, or 'all'")
	live := fs.Bool("live", false, "run only the live-loop scenarios (tag 'live')")
	seed := seedFlag(fs)
	parallel := parallelFlag(fs)
	jsonOut, csvOut := traceFlags(fs)
	names := parseMixed(fs, args)
	selection := *run
	if len(names) > 0 {
		selection = strings.Join(names, ",")
	}
	mode, err := pickMode(*jsonOut, *csvOut)
	if err != nil {
		log.Fatal(err)
	}
	defs, err := selectDefs(selection)
	if err != nil {
		log.Fatal(err)
	}
	if *live {
		defs = filterTag(defs, "live")
		if len(defs) == 0 {
			log.Fatal("-live selected no scenarios; none of the selection carries the live tag")
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := runRendered(ctx, defs, *seed, workersFor(*parallel), mode)
	fmt.Print(out)
	if err != nil {
		log.Fatal(err)
	}
}

// runRendered runs defs and renders the traces of every scenario that
// completed. On interrupt the workers stop scheduling new scenarios; the
// finished traces are still returned, with an error only when some scenario
// did not complete, so a cut-short run never discards finished work and a
// run that lost nothing is not reported as cut short.
func runRendered(ctx context.Context, defs []scenario.Def, seed int64, workers int, mode renderMode) (string, error) {
	results, err := runAll(ctx, defs, seed, workers)
	if err != nil {
		return "", err
	}
	done := results[:0]
	for _, res := range results {
		if res != nil {
			done = append(done, res)
		}
	}
	out, err := render(done, mode)
	if err != nil {
		return "", err
	}
	if len(done) < len(defs) {
		return out, fmt.Errorf("interrupted: %d of %d scenarios completed", len(done), len(defs))
	}
	return out, nil
}

// cmdSweep generates, runs and invariant-checks N timelines across the
// generator profiles, printing the aggregate report JSON. Exit status 1
// when any invariant is violated (after the report and the violations are
// printed), so CI can gate on a clean sweep.
func cmdSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	n := fs.Int("n", 200, "total generated timelines across the selected profiles")
	seed := seedFlag(fs)
	parallel := parallelFlag(fs)
	profiles := fs.String("profiles", "", "comma-separated generator profiles (default all)")
	out := fs.String("out", "", "write the report JSON to this file instead of stdout")
	shrinkDir := fs.String("shrink-dir", "", "shrink each violating timeline and write the minimal JSON artifacts here")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (runtime/pprof; go tool pprof reads it)")
	memprofile := fs.String("memprofile", "", "write a heap profile, allocations included, to this file once the sweep has run")
	parseFlags(fs, args)
	opts := scenario.SweepOptions{Runs: *n, Seed: *seed, Workers: workersFor(*parallel)}
	if *profiles != "" {
		for _, p := range strings.Split(*profiles, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.Profiles = append(opts.Profiles, p)
			}
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopProfiles, err := profile.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	report, err := scenario.Sweep(ctx, opts)
	if perr := stopProfiles(); perr != nil {
		log.Fatal(perr)
	}
	if err != nil {
		log.Fatal(err)
	}
	b, err := report.MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Print(string(b))
	}
	if len(report.Violating) == 0 {
		return
	}
	for _, run := range report.Violating {
		for _, v := range run.Violations {
			fmt.Fprintf(os.Stderr, "scenarios: %s violates %s at seq %d (%s): %s\n",
				run.Name, v.Invariant, v.Seq, v.T, v.Detail)
		}
		if *shrinkDir != "" {
			writeShrunk(run, opts.Seed, *shrinkDir)
		}
	}
	os.Exit(1)
}

// writeShrunk regenerates one violating run's timeline, shrinks it against
// its first violated invariant, and writes the minimal artifact.
func writeShrunk(run scenario.SweepRun, seed int64, dir string) {
	p, ok := scenario.LookupProfile(run.Profile)
	if !ok {
		log.Fatalf("violating run %s names unknown profile %q", run.Name, run.Profile)
	}
	target, ok := scenario.InvariantByName(run.Violations[0].Invariant)
	if !ok {
		log.Fatalf("violating run %s names unknown invariant %q", run.Name, run.Violations[0].Invariant)
	}
	res, err := scenario.Shrink(p.Generate(seed, run.Index), seed, target)
	if err != nil {
		log.Fatal(err)
	}
	b, err := res.Timeline.MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, run.Name+".min.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "scenarios: shrunk %s: %d -> %d events (%d candidate runs) -> %s\n",
		run.Name, res.OriginalEvents, res.Events, res.Runs, path)
}

// cmdGen prints one generated timeline, addressed by (profile, seed,
// index) — the exact timeline a sweep would run at that slot.
func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	profile := fs.String("profile", "", "generator profile (see scenarios list)")
	seed := seedFlag(fs)
	index := fs.Int("index", 0, "generation index within the profile")
	out := fs.String("out", "", "write the timeline JSON to this file instead of stdout")
	parseFlags(fs, args)
	p, ok := scenario.LookupProfile(*profile)
	if !ok {
		log.Fatalf("unknown profile %q; available: %s", *profile, strings.Join(scenario.ProfileNames(), ", "))
	}
	b, err := p.Generate(*seed, *index).MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(string(b))
}

// cmdReplay runs a timeline JSON file and renders its trace — the replay
// half of the "every artifact is a runnable scenario" contract.
func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	seed := seedFlag(fs)
	jsonOut, csvOut := traceFlags(fs)
	files := parseMixed(fs, args)
	if len(files) != 1 {
		log.Fatal("replay needs exactly one timeline.json argument")
	}
	mode, err := pickMode(*jsonOut, *csvOut)
	if err != nil {
		log.Fatal(err)
	}
	tl := loadTimeline(files[0])
	res, err := scenario.Run(tl.Def(), *seed)
	if err != nil {
		log.Fatal(err)
	}
	outStr, err := render([]*scenario.Result{res}, mode)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(outStr)
}

// cmdShrink minimizes a violating timeline file against one invariant and
// writes the minimal artifact.
func cmdShrink(args []string) {
	fs := flag.NewFlagSet("shrink", flag.ContinueOnError)
	seed := seedFlag(fs)
	invariant := fs.String("invariant", "never-unsafe", "target invariant the timeline violates")
	out := fs.String("out", "", "write the minimal timeline JSON to this file instead of stdout")
	files := parseMixed(fs, args)
	if len(files) != 1 {
		log.Fatal("shrink needs exactly one timeline.json argument")
	}
	target, ok := scenario.InvariantByName(*invariant)
	if !ok {
		log.Fatalf("unknown invariant %q", *invariant)
	}
	tl := loadTimeline(files[0])
	res, err := scenario.Shrink(tl, *seed, target)
	if err != nil {
		log.Fatal(err)
	}
	b, err := res.Timeline.MarshalIndent()
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Print(string(b))
	}
	fmt.Fprintf(os.Stderr, "scenarios: shrunk %s against %s: %d -> %d events (%d candidate runs)\n",
		res.Timeline.Name, target.Name, res.OriginalEvents, res.Events, res.Runs)
}

func loadTimeline(path string) *scenario.Timeline {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	tl, err := scenario.ParseTimeline(data)
	if err != nil {
		log.Fatal(err)
	}
	return tl
}

// selectDefs resolves a selection against the registry. Unknown names are
// hard errors listing what exists, so a typo cannot silently skip a
// scenario.
func selectDefs(run string) ([]scenario.Def, error) {
	if strings.EqualFold(strings.TrimSpace(run), "all") || strings.TrimSpace(run) == "" {
		return scenario.All(), nil
	}
	var out []scenario.Def
	seen := make(map[string]bool)
	for _, raw := range strings.Split(run, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		d, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q; available: %s",
				name, strings.Join(scenario.Names(), ", "))
		}
		if !seen[d.Name] {
			seen[d.Name] = true
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no scenarios; available: %s",
			strings.Join(scenario.Names(), ", "))
	}
	return out, nil
}

// filterTag keeps the scenarios carrying the tag, in selection order.
func filterTag(defs []scenario.Def, tag string) []scenario.Def {
	var out []scenario.Def
	for _, d := range defs {
		for _, t := range d.Tags {
			if strings.EqualFold(t, tag) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// runAll executes the selected scenarios on up to workers goroutines and
// returns results in selection order. Each scenario's trace depends only
// on (seed, name), so the worker count cannot change any output byte.
// When ctx is cancelled (SIGINT/SIGTERM) no further scenarios start;
// in-flight ones finish and their slots are filled, leaving the rest nil.
func runAll(ctx context.Context, defs []scenario.Def, seed int64, workers int) ([]*scenario.Result, error) {
	results := make([]*scenario.Result, len(defs))
	err := sim.Parallel(ctx, len(defs), workers, func(_ context.Context, _, i int) (err error) {
		results[i], err = scenario.Run(defs[i], seed)
		return err
	})
	if err != nil && err != ctx.Err() {
		return nil, err
	}
	return results, nil
}

type renderMode int

const (
	modeSummary renderMode = iota
	modeJSON
	modeCSV
)

// render formats results in their (deterministic) selection order.
func render(results []*scenario.Result, mode renderMode) (string, error) {
	var b strings.Builder
	switch mode {
	case modeJSON:
		for _, res := range results {
			for _, rec := range res.Records {
				line, err := rec.JSON()
				if err != nil {
					return "", err
				}
				b.WriteString(line)
				b.WriteByte('\n')
			}
		}
	case modeCSV:
		w := csv.NewWriter(&b)
		if err := w.Write(scenario.CSVHeader()); err != nil {
			return "", err
		}
		for _, res := range results {
			for _, rec := range res.Records {
				if err := w.Write(rec.CSVRow()); err != nil {
					return "", err
				}
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return "", err
		}
	default:
		tab := metrics.NewTable("scenario runs",
			"scenario", "seed", "records", "events", "final n", "min H", "final H",
			"max Σf", "at", "unsafe", "adv best", "adv breaks",
			"checks", "diverge", "breach", "max TTR", "view", "rotations")
		for _, res := range results {
			s := res.Summary()
			tab.AddRowf(s.Scenario, fmt.Sprintf("%d", s.Seed), s.Records, s.Events,
				s.FinalReplicas,
				fmt.Sprintf("%.3f", s.MinEntropy), fmt.Sprintf("%.3f", s.FinalEntropy),
				fmt.Sprintf("%.3f", s.MaxComp), formatAt(s.MaxCompAt), s.UnsafeRecords,
				fmt.Sprintf("%.3f", s.AdvBestFrac), fmt.Sprintf("%t", s.AdvBreaks),
				s.Checks, s.Divergences, s.Breaches, formatTTR(s),
				s.FinalView, s.ViewChanges)
		}
		tab.AddNote("H = entropy (bits); Σf = deduplicated compromised power fraction; re-run with -json or -csv for the full trace")
		tab.AddNote("checks/diverge/breach/TTR come from the live loop (scenarios tagged 'live'); - = no live harness or no recovery")
		tab.AddNote("view/rotations track BFT primary rotation (live scenarios with a view timeout); 0 = fixed primary")
		b.WriteString(tab.String())
	}
	return b.String(), nil
}

// formatAt renders the worst-compromise instant compactly in hours.
func formatAt(d time.Duration) string {
	return fmt.Sprintf("%gh", d.Hours())
}

// formatTTR renders the slowest recovery span, "-" when nothing recovered.
func formatTTR(s scenario.Summary) string {
	if s.Recoveries == 0 {
		return "-"
	}
	return s.MaxTTR.String()
}

// listTable renders the registry index.
func listTable() *metrics.Table {
	tab := metrics.NewTable("registered scenarios", "name", "title", "tags", "horizon")
	for _, d := range scenario.All() {
		tab.AddRowf(d.Name, d.Title, strings.Join(d.Tags, ","), d.Horizon.String())
	}
	tab.AddNote("run a subset with: scenarios run name name; tags: %s", strings.Join(scenario.Tags(), ", "))
	return tab
}

// profileTable renders the generator profile index.
func profileTable() *metrics.Table {
	tab := metrics.NewTable("generator profiles", "profile", "family")
	for _, p := range scenario.Profiles() {
		tab.AddRowf(p.Name, p.Title)
	}
	tab.AddNote("sweep them with: scenarios sweep -n 200 -seed 42; one timeline with: scenarios gen -profile name -index i")
	return tab
}
