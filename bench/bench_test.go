package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestOpListRepeatsPerSeed(t *testing.T) {
	for _, m := range []mix{readMix, churnMix} {
		a, b := opListHash(fullSize, m, 1, 2, 500), opListHash(fullSize, m, 1, 2, 500)
		if a != b {
			t.Fatalf("same seed, different op lists: %s vs %s", a, b)
		}
		if c := opListHash(fullSize, m, 2, 2, 500); c == a {
			t.Fatalf("seeds 1 and 2 gave the same op list %s", a)
		}
	}
}

// benchmarkJSON mirrors the metric and workload lists of BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode pins the vocabulary: every name in
// BENCHMARK.json is well-formed, used once, and is exactly what the code
// reports, with the same unit.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	note := func(name string) {
		if !valid.MatchString(name) {
			t.Errorf("name %q is malformed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		note(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	for _, side := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		units := map[string]string{}
		for _, m := range side.json {
			note(m.Name)
			units[m.Name] = m.Unit
		}
		if len(units) != len(side.code) {
			t.Errorf("BENCHMARK.json lists %d metrics where the code reports %d", len(units), len(side.code))
		}
		for _, d := range side.code {
			if units[d.name] != d.unit {
				t.Errorf("metric %s: unit %q in the code, %q in BENCHMARK.json", d.name, d.unit, units[d.name])
			}
		}
	}
}

// repeatingCounts are the traced counts that must read exactly the same
// on every run at one seed; only these may back a claim made as a count.
var repeatingCounts = []string{
	"core.hits", "core.delta_applies", "core.rebuilds", "registry.diff_buckets", "vuln.critical_instants",
	"scenario.records_per_run", "simnet.msgs_per_commit", "bftlive.view_changes_per_run",
}

// TestSmoke runs every workload in both modes at a tiny size against
// freshly built binaries: outputs are correct, nothing fails, every
// declared metric is reported, and the repeating counts repeat.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the binaries")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiny := sizing{
		tenants: 2, replicas: 50, vulns: 8, setups: 1, traceOps: 200, watchSamples: 5,
		sweepJob: 4, sweepCheck: 4, traceTimelines: 4, commits: 10,
	}
	for _, w := range workloads {
		r, err := runWorkload(e, tiny, w, 1, 0.3, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 || len(r.missing(endToEnd)) > 0 {
			t.Errorf("%s end to end: correct=%v failed=%d attempted=%d missing=%v", w.name, r.Correct, r.Failed, r.Attempted, r.missing(endToEnd))
		}
		for name, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
		var traced [2]*result
		for i := range traced {
			if traced[i], err = runWorkload(e, tiny, w, 1, 0.3, true); err != nil {
				t.Fatalf("%s traced: %v", w.name, err)
			}
			if r := traced[i]; !r.Correct || r.Failed != 0 || len(r.missing(perLayer)) > 0 {
				t.Errorf("%s traced: correct=%v failed=%d missing=%v", w.name, r.Correct, r.Failed, r.missing(perLayer))
			}
		}
		for _, name := range repeatingCounts {
			if a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value; a != b {
				t.Errorf("%s: %s read %v then %v at one seed", w.name, name, a, b)
			}
		}
		if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.name+".jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}
