package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// The per-layer numbers come from a traced run: the benchmark replays one
// seeded operation list as a ladder, each rung one layer further in and
// against its own identically seeded state, and records a span around
// every call it makes into a layer. A layer's self time is its rung minus
// the rung below. Spans stay in memory and are written when the run ends.

// span is one timed call. Spans of one operation share Op; Parent is the
// index of the span that caused this one, -1 for a rung's outermost span.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer collects spans. A nil tracer records nothing.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string][]float64)}
}

// begin opens a span and returns its index, for children to name as
// their parent and for end to close.
func (t *tracer) begin(op int, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// count records a count taken at a layer boundary.
func (t *tracer) count(name string, n int) {
	if t != nil {
		t.counts[name] = append(t.counts[name], float64(n))
	}
}

// us returns the durations, in microseconds and in recording order, of
// every span with one of the names. Rungs replay one op list in order, so
// two rungs' series line up op by op.
func (t *tracer) us(names ...string) []float64 {
	var out []float64
	for i := range t.spans {
		for _, name := range names {
			if t.spans[i].Name == name {
				out = append(out, float64(t.spans[i].End-t.spans[i].Start)/1000)
				break
			}
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goCost is the Go runtime's bill for a stretch of in-process work.
type goCost struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

func readGoCost() goCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return goCost{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

// setGoCost reports allocations per operation and the collector's share
// of CPU between two readings.
func (r *result) setGoCost(before, after goCost, ops int) {
	r.set("go.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops), ops)
	r.set("go.alloc_kb_per_op", float64(after.bytes-before.bytes)/1024/float64(ops), ops)
	share := 0.0
	if after.cpu > before.cpu {
		share = (after.gcCPU - before.gcCPU) / (after.cpu - before.cpu)
	}
	r.set("go.gc_cpu_share", share, ops)
}

// perLayer is every metric a traced run prints. A workload that never
// enters a layer reports 0 for it: the layer did no work there.
var perLayer = []metricDef{
	// serve ladder, outside in
	{"client.read_roundtrip_us", "us"}, {"client.worst_roundtrip_us", "us"}, {"client.mutate_roundtrip_us", "us"},
	{"cmd.monitord.timeout_wrap_us", "us"},
	{"client.transport_us", "us"},
	{"monitord.read_handler_us", "us"}, {"monitord.worst_handler_us", "us"}, {"monitord.mutate_handler_us", "us"},
	{"monitord.lookup_ns", "ns"}, {"monitord.self_us", "us"}, {"monitord.resp_bytes", "B"},
	{"registry.set_power_us", "us"}, {"registry.migrate_us", "us"}, {"registry.join_us", "us"}, {"registry.leave_us", "us"},
	{"vuln.catalog_add_us", "us"},
	{"core.assess_hit_us", "us"}, {"core.worst_memo_us", "us"},
	{"core.assess_delta_us", "us"}, {"core.self_us", "us"},
	{"registry.snapshot_delta_us", "us"}, {"registry.diff_us", "us"}, {"registry.diff_buckets", "count"},
	{"diversity.report_us", "us"}, {"vuln.apply_buckets_us", "us"}, {"vuln.apply_catalog_us", "us"}, {"vuln.inject_us", "us"},
	{"core.worst_sweep_us", "us"}, {"vuln.worst_window_us", "us"}, {"vuln.critical_instants", "count"},
	{"core.assess_rebuild_us", "us"}, {"registry.snapshot_full_us", "us"}, {"vuln.build_us", "us"},
	{"core.hits", "count"}, {"core.delta_applies", "count"}, {"core.rebuilds", "count"}, {"core.hit_ratio", "ratio"},
	{"monitord.watch_delivery_ms", "ms"}, {"monitord.watch_dropped", "count"},
	// the closed loop seen per request class (diagnostic: not gated)
	{"client.raw_ops_per_s", "1/s"},
	{"client.read_p50_ms", "ms"}, {"client.read_p90_ms", "ms"}, {"client.read_p99_ms", "ms"},
	{"client.worst_p50_ms", "ms"}, {"client.worst_p90_ms", "ms"}, {"client.worst_p99_ms", "ms"},
	{"client.mutate_p50_ms", "ms"}, {"client.mutate_p90_ms", "ms"}, {"client.mutate_p99_ms", "ms"},
	// sweep ladder
	{"scenario.generate_us", "us"}, {"scenario.run_us", "us"}, {"scenario.check_us", "us"}, {"scenario.invariants_us", "us"},
	{"scenario.inv.safe-consistency_us", "us"}, {"scenario.inv.worst-dominates_us", "us"}, {"scenario.inv.patch-monotone_us", "us"},
	{"scenario.inv.oracle-agreement_us", "us"}, {"scenario.inv.view-liveness_us", "us"},
	{"scenario.emit_us", "us"}, {"scenario.records_per_run", "count"}, {"scenario.events_per_run", "count"},
	{"core.hits_per_run", "count"}, {"core.delta_applies_per_run", "count"}, {"core.rebuilds_per_run", "count"},
	{"scenario.encode_us", "us"}, {"scenario.timeline_roundtrip_us", "us"},
	{"scenario.sweep_speedup", "ratio"}, {"scenario.cli_overhead_s", "s"},
	{"liveloop.self_us", "us"}, {"liveloop.checks_per_run", "count"}, {"liveloop.divergences", "count"},
	{"bftlive.commits_per_run", "count"}, {"bftlive.view_changes_per_run", "count"},
	{"bftlive.commit_us", "us"}, {"bftlive.lossy_commit_us", "us"},
	{"simnet.msgs_per_commit", "count"}, {"simnet.lossy_msgs_per_commit", "count"},
	{"sim.events_per_commit", "count"}, {"sim.event_ns", "ns"},
	// both ladders
	{"go.allocs_per_op", "count"}, {"go.alloc_kb_per_op", "KB"}, {"go.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// zeroUnset fills in 0 for every layer the workload did not enter.
func (r *result) zeroUnset() {
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.name]; !ok {
			r.set(d.name, 0, 0)
		}
	}
}
