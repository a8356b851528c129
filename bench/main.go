// Command bench is the repository's benchmark: four workloads over the two
// surfaces the system is used through (the monitord daemon and the
// scenarios sweep farm), measured end to end from outside the shipped
// binaries, plus a traced run that times each layer from here. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench -workload serve-churn -seed 1 -seconds 20 -trace 0
//	go run ./bench -seed 1            # every workload, end to end
//	go run ./bench -seed 1 -trace 1   # every workload, per-layer ladder
//
// The last line of standard output of each workload is one JSON object
// {correct, attempted, failed, metrics}; a readable table goes to standard
// error. The exit status is non-zero when any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/scenario"
)

// sizing fixes how much state and work a run uses. fullSize is what
// BENCHMARK.json measures; the smoke test shrinks it.
type sizing struct {
	tenants, replicas, vulns int
	setups                   int // set-ups per run; setup_s is their median
	traceOps                 int // serial ops replayed per ladder rung
	watchSamples             int // SSE delivery samples
	sweepJob                 int // timelines per child sweep job (×5 analytic)
	sweepCheck               int // timelines in the -parallel 1 vs nproc pre-check
	traceTimelines           int // timelines per sweep ladder rung (×5 analytic)
	commits                  int // submits per bftlive micro-run
}

var fullSize = sizing{
	tenants: 16, replicas: 2000, vulns: 50,
	setups: 5, traceOps: 4000, watchSamples: 200,
	sweepJob: 50, sweepCheck: 40, traceTimelines: 80, commits: 200,
}

// workload is one named input set. Serve workloads have a request mix,
// sweep workloads a profile list.
type workload struct {
	name     string
	mix      *mix
	profiles string
	live     bool // timelines carry a live BFT cluster
}

var workloads = []workload{
	{name: "serve-read", mix: &readMix},
	{name: "serve-churn", mix: &churnMix},
	{name: "sweep-analytic", profiles: "churn-heavy,disclosure-storm,partition-flap,adaptive-adversary"},
	{name: "sweep-live", profiles: "lossy-wire", live: true},
}

// analyticScale is how many analytic timelines cost about as much as one
// live one; sweep sizes are multiplied by it for non-live workloads.
const analyticScale = 5

// genProfiles resolves the profile list in the generator's canonical
// order, the order Sweep assigns timelines in.
func (w workload) genProfiles() (out []scenario.GenProfile) {
	for _, p := range scenario.Profiles() {
		if strings.Contains(","+w.profiles+",", ","+p.Name+",") {
			out = append(out, p)
		}
	}
	return out
}

func (w workload) timelines(n int) int {
	if w.live {
		return n
	}
	return n * analyticScale
}

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names (the smoke test compares them).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// metric is one reported value in the driver's format.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a workload run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples holds the sample count behind a metric, and notes the
	// diagnostics that are printed but not part of the JSON object.
	samples map[string]int
	notes   []string
}

func newResult() *result {
	return &result{Metrics: make(map[string]metric), samples: make(map[string]int)}
}

// set records a metric; the name must be one BENCHMARK.json declares.
func (r *result) set(name string, v float64, samples int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
				r.samples[name] = samples
				return
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// env is where a run finds the binaries it drives and writes its traces.
type env struct {
	monitord, scenarios string
	outDir              string
	callers             int // closed-loop callers and sweep workers: nproc
}

// newEnv builds the binaries of the checkout at root into out/bin.
func newEnv(root, out string) (env, error) {
	bin := filepath.Join(out, "bin")
	if err := buildBinaries(root, bin); err != nil {
		return env{}, err
	}
	return env{
		monitord:  filepath.Join(bin, "monitord"),
		scenarios: filepath.Join(bin, "scenarios"),
		outDir:    out,
		callers:   runtime.NumCPU(),
	}, nil
}

// runWorkload measures one workload: end to end (trace off) or as the
// per-layer ladder (trace on).
func runWorkload(e env, sz sizing, w workload, seed int64, seconds float64, trace bool) (*result, error) {
	switch {
	case w.mix != nil && !trace:
		return serveEndToEnd(e, sz, w, seed, seconds)
	case w.mix != nil:
		return serveLadder(e, sz, w, seed, seconds)
	case !trace:
		return sweepEndToEnd(e, sz, w, seed, seconds)
	default:
		return sweepLadder(e, sz, w, seed)
	}
}

// missing lists the declared metrics the run did not report.
func (r *result) missing(defs []metricDef) (names []string) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			names = append(names, d.name)
		}
	}
	return names
}

// print writes the readable table to standard error and the result object
// as the last line of standard output.
func (r *result) print(w workload, defs []metricDef) error {
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "== %s\tcorrect=%v\tattempted=%d\tfailed=%d\t\n", w.name, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\tn=%d\t\n", name, m.Value, m.Unit, r.samples[name])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	if missing := r.missing(defs); len(missing) > 0 {
		return fmt.Errorf("bench: %s did not produce %v", w.name, missing)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func run() error {
	name := flag.String("workload", "", "workload to run (default: all of them in turn)")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 20, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ladder, spans in bench/out/")
	flag.Parse()

	var selected []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("bench: unknown workload %q", *name)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	e, err := newEnv(root, filepath.Join(root, "bench", "out"))
	if err != nil {
		return err
	}
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	ok := true
	for _, w := range selected {
		r, err := runWorkload(e, fullSize, w, *seed, *seconds, *trace != 0)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := r.print(w, defs); err != nil {
			return err
		}
		ok = ok && r.Correct
	}
	if !ok {
		return fmt.Errorf("bench: incorrect output")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
