// Command layers prints the CPU budget of a profiled sweep or daemon, layer
// by layer, under the layer names the repository benchmark's per-layer
// ladder (bench --trace 1) uses, and fails when more than 5 % of the
// samples fall in no layer.
//
//	go build -o /tmp/scenarios ./cmd/scenarios
//	/tmp/scenarios sweep -n 1000 -seed 42 -cpuprofile /tmp/sweep.prof > /dev/null
//	go tool pprof -traces /tmp/scenarios /tmp/sweep.prof | go run .github/scripts/layers.go
//
// It reads the text of go tool pprof -traces (stdin, or the file named by
// the one argument): one block per distinct stack, its sample value on the
// leaf's line and one frame per line up to the root. A stack goes to one
// layer, in two passes:
//
//   - owners: gc (background mark and sweep workers, write barriers),
//     malloc (anything under runtime.mallocgc or runtime.growslice), the
//     invariant checks (scenario.inv.<name>), generation and encoding, each
//     owning its whole subtree wherever in the stack it sits, as the
//     ladder's span of an invariant times all the work it adds;
//   - otherwise the innermost frame that enters a layer, as the ladder's
//     innermost open span owns a moment: a layer's entry points are the
//     functions its span times (vuln.inject is GroupInjector.Inject,
//     vuln.worst_window its WorstWindow), or, for a package that is one
//     layer, any of its functions. Helpers shared by several layers (vuln's
//     inject under WorstWindow) are no entry point, so they count for the
//     layer that called them, and work no span of its own times counts for
//     the one around it (scenario.run: the engine's events; monitord.self:
//     the mux and what no handler span covers; cmd: the program's main).
//
// A stack no rule claims is unassigned. Names the ladder has no span for
// are the package's (adversary, committee, config, …, runtime.sched for the
// goroutine scheduler, timers and syscalls); they are layers like the
// others.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxUnassigned is the share of samples that may fall in no layer.
const maxUnassigned = 0.05

// owners claim a stack when any of its frames starts with one of their
// prefixes, tried in this order.
var owners = []rule{
	{"gc", []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcWriteBarrier",
		"runtime.wbBufFlush", "runtime.bulkBarrierPreWrite", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.forEachP"}},
	{"malloc", []string{"runtime.mallocgc", "runtime.growslice"}},
	{"scenario.inv.oracle-agreement", []string{"repro/internal/scenario.(*oracleObserver)."}},
	{"scenario.inv.patch-monotone", []string{"repro/internal/scenario.(*patchMonotoneObserver)."}},
	{"scenario.inv.safe-consistency", []string{"repro/internal/scenario.SafeConsistency."}},
	{"scenario.inv.worst-dominates", []string{"repro/internal/scenario.WorstDominates."}},
	{"scenario.inv.view-liveness", []string{"repro/internal/scenario.ViewLiveness."}},
	{"scenario.generate", []string{"repro/internal/scenario.GenProfile."}},
	{"scenario.encode", []string{"repro/internal/scenario.(*SweepReport).MarshalIndent", "repro/internal/scenario.(*Timeline).MarshalIndent",
		"repro/internal/scenario.WriteJSONL", "repro/internal/scenario.WriteCSV"}},
}

// entries map a frame to the layer it enters; the innermost frame that
// matches one decides. Within one frame the first matching rule wins, so
// specific entry points sit before their package's catch-all.
var entries = []rule{
	{"scenario.emit", []string{"repro/internal/scenario.(*Engine).emit"}},
	// The live harness (internal/scenario/live.go): its type, methods,
	// closures and helpers, under the name the ladder gives that layer.
	{"liveloop.self", []string{"repro/internal/scenario.(*harness).", "repro/internal/scenario.attach",
		"repro/internal/scenario.configExposed", "repro/internal/scenario.cleanTargets", "repro/internal/scenario.fmtFrac"}},
	{"scenario.run", []string{"repro/internal/scenario."}},
	{"cmd", []string{"main.", "repro/internal/profile."}},
	{"vuln.worst_window", []string{"repro/internal/vuln.(*GroupInjector).WorstWindow", "repro/internal/vuln.(*Injector).WorstWindow", "repro/internal/vuln.WorstWindow"}},
	{"vuln.inject", []string{"repro/internal/vuln.(*GroupInjector).Inject", "repro/internal/vuln.(*Injector).Inject", "repro/internal/vuln.Inject",
		"repro/internal/vuln.(*GroupInjector).TotalFractionAt", "repro/internal/vuln.(*Injector).TotalFractionAt"}},
	{"vuln.apply_buckets", []string{"repro/internal/vuln.(*GroupInjector).ApplyBuckets"}},
	{"vuln.apply_catalog", []string{"repro/internal/vuln.(*GroupInjector).ApplyCatalog"}},
	{"vuln.build", []string{"repro/internal/vuln.NewGroupInjector", "repro/internal/vuln.NewInjector", "repro/internal/vuln.(*Injector).Rebuild"}},
	{"vuln.catalog_add", []string{"repro/internal/vuln.(*Catalog).Add"}},
	{"registry.diff", []string{"repro/internal/registry.DiffSnapshots"}},
	{"diversity.report", []string{"repro/internal/registry.(*Snapshot).Report", "repro/internal/diversity."}},
	{"registry.snapshot_delta", []string{"repro/internal/registry.(*Registry).Snapshot", "repro/internal/registry.(*Snapshot)."}},
	{"registry.join", []string{"repro/internal/registry.(*Registry).Join"}},
	{"registry.leave", []string{"repro/internal/registry.(*Registry).Leave"}},
	{"registry.set_power", []string{"repro/internal/registry.(*Registry).SetPower"}},
	{"registry.migrate", []string{"repro/internal/registry.(*Registry).Migrate"}},
	{"registry.read", []string{"repro/internal/registry.(*Registry).Get", "repro/internal/registry.(*Registry).Records"}},
	{"core.worst_sweep", []string{"repro/internal/core.(*Monitor).Worst"}},
	{"core.self", []string{"repro/internal/core."}},
	{"monitord.worst_handler", []string{"repro/internal/monitord.(*Server).handleWorst"}},
	{"monitord.mutate_handler", []string{"repro/internal/monitord.(*Server).handlePatch", "repro/internal/monitord.(*Server).handleJoin",
		"repro/internal/monitord.(*Server).handleLeave", "repro/internal/monitord.(*Server).handleDisclose", "repro/internal/monitord.(*Server).handleAdvance",
		"repro/internal/monitord.(*Server).handleCreate", "repro/internal/monitord.(*Server).handleDelete"}},
	{"monitord.read_handler", []string{"repro/internal/monitord.(*Server).handle"}},
	{"monitord.self", []string{"repro/internal/monitord.(*Server).ServeHTTP"}},
	{"monitord.watch", []string{"repro/internal/monitord.(*hub)."}},
	{"bftlive.commit", []string{"repro/internal/bftlive."}},
	{"simnet", []string{"repro/internal/simnet."}},
	{"sim", []string{"repro/internal/sim."}},
	{"adversary", []string{"repro/internal/adversary."}},
	{"committee", []string{"repro/internal/committee."}},
	{"config", []string{"repro/internal/config.", "repro/internal/cryptoutil.", "repro/internal/spec.", "crypto/"}},
	{"client.transport", []string{"net/http.", "net.", "internal/poll.", "bufio.", "syscall.", "crypto/tls."}},
	{"runtime.sched", []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.goexit0",
		"runtime.futex", "runtime.usleep", "runtime.netpoll", "runtime.sysmon", "runtime.morestack", "runtime.newstack",
		"runtime.exitsyscall", "runtime.entersyscall", "runtime.notetsleep", "runtime.goready", "runtime.ready",
		"runtime.mstart", "runtime.newproc", "runtime.gopark",
		"runtime.lock2", "runtime.unlock2", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.nanotime", "runtime.walltime", "time.now"}},
}

type rule struct {
	layer    string
	prefixes []string
}

func (r rule) matches(frame string) bool {
	for _, p := range r.prefixes {
		if strings.HasPrefix(frame, p) {
			return true
		}
	}
	return false
}

// layerOf returns the layer a stack (leaf first) goes to, or "" for none.
func layerOf(stack []string) string {
	for _, r := range owners {
		for _, f := range stack {
			if r.matches(f) {
				return r.layer
			}
		}
	}
	for _, f := range stack {
		for _, r := range entries {
			if r.matches(f) {
				return r.layer
			}
		}
	}
	return ""
}

// sample is one stack of the profile and its value.
type sample struct {
	value float64
	stack []string
}

// parse reads go tool pprof -traces text: blocks separated by dashed lines,
// the first line of a block the value and the leaf, the rest its callers.
func parse(r io.Reader) ([]sample, error) {
	var out []sample
	var cur *sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch trimmed := strings.TrimSpace(line); {
		case strings.HasPrefix(trimmed, "-----------+"):
			cur = nil
		case trimmed == "" || cur == nil && !startsWithValue(trimmed):
			// The header (File:, Type:, …) and blank lines.
		case cur == nil:
			value, leaf, _ := strings.Cut(trimmed, " ")
			v, err := parseValue(value)
			if err != nil {
				return nil, fmt.Errorf("layers: %q: %w", line, err)
			}
			out = append(out, sample{value: v, stack: []string{frame(leaf)}})
			cur = &out[len(out)-1]
		default:
			cur.stack = append(cur.stack, frame(trimmed))
		}
	}
	return out, sc.Err()
}

func startsWithValue(s string) bool { return s[0] >= '0' && s[0] <= '9' }

// frame strips pprof's " (inline)" note off a frame.
func frame(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}

// parseValue reads a sample value: a duration (10ms, 1.50s) or a count.
func parseValue(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return float64(d), nil
	}
	return strconv.ParseFloat(s, 64)
}

func main() {
	in := io.Reader(os.Stdin)
	if len(os.Args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: go tool pprof -traces BINARY PROFILE | go run .github/scripts/layers.go [TRACES]")
		os.Exit(2)
	}
	if len(os.Args) == 2 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	samples, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var total float64
	share := map[string]float64{}
	unassigned := map[string]float64{} // by leaf, to say what a new rule must cover
	for _, s := range samples {
		total += s.value
		layer := layerOf(s.stack)
		share[layer] += s.value
		if layer == "" {
			unassigned[s.stack[0]] += s.value
		}
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "layers: the profile holds no samples")
		os.Exit(1)
	}
	layers := make([]string, 0, len(share))
	for l := range share {
		if l != "" {
			layers = append(layers, l)
		}
	}
	sort.Slice(layers, func(i, j int) bool {
		if share[layers[i]] != share[layers[j]] {
			return share[layers[i]] > share[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Printf("%-32s %7s  (%d stacks, %v of samples)\n", "layer", "share", len(samples), time.Duration(total))
	for _, l := range layers {
		fmt.Printf("%-32s %6.1f%%\n", l, 100*share[l]/total)
	}
	rest := share[""] / total
	fmt.Printf("%-32s %6.1f%%\n", "unassigned", 100*rest)
	if rest > maxUnassigned {
		leaves := make([]string, 0, len(unassigned))
		for leaf := range unassigned {
			leaves = append(leaves, leaf)
		}
		sort.Slice(leaves, func(i, j int) bool { return unassigned[leaves[i]] > unassigned[leaves[j]] })
		for _, leaf := range leaves {
			fmt.Fprintf(os.Stderr, "  unassigned %5.1f%%  %s\n", 100*unassigned[leaf]/total, leaf)
		}
		fmt.Fprintf(os.Stderr, "layers: %.1f%% of samples fall in no layer, more than %.0f%%\n", 100*rest, 100*maxUnassigned)
		os.Exit(1)
	}
}
