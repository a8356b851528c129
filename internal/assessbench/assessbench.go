// Package assessbench builds the assessment scale-ladder workload and
// measures the five assessment paths against it:
//
//   - flat: the pre-bucketing cold path — a per-replica exposure index
//     rebuilt from scratch (vuln.Inject over the materialised replica
//     slice), O(replicas × vulns) per assessment;
//   - cold: the bucketed full rebuild — a fresh monitor's first
//     assessment, constructing the grouped exposure index from the
//     snapshot's bucket aggregates, O(groups + vulns) regardless of
//     population;
//   - incremental: one registry mutation followed by an assessment on a
//     long-lived monitor, exercising the dirty-bucket snapshot delta and
//     the O(Δ) exposure patch;
//   - cached: an assessment on an unchanged registry at an unchanged
//     instant — the monitor's memoised answer;
//   - worst: one registry mutation followed by a worst-window assessment
//     over the horizon — the incremental path plus the bound-pruned sweep
//     of every critical instant, what a GET …/worst costs under churn.
//
// Beside the five timings each rung reports the live heap a tenant of its
// size keeps resident, per replica: the registry, its snapshot and a
// monitor that has assessed once.
//
// The same builder feeds BenchmarkAssessScale (bench_test.go) and
// cmd/assessbench, which emits the committed BENCH_assess.json, so the
// numbers in the README and the benchmarks in CI cannot drift apart.
package assessbench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/vuln"
)

// Workload shape: enough configuration buckets and equivalence groups to
// be structurally realistic, few enough that group counts saturate by the
// 100k rung — which is exactly what makes the bucketed paths O(1) in
// population size from there on.
const (
	Products       = 32 // distinct OS products = configuration buckets
	PowerClasses   = 97 // distinct raw power values
	LatencyClasses = 5  // distinct patch latencies (0..48h in 12h steps)

	// Horizon and instant: vulnerabilities disclose across ~29 days; the
	// probe instant sits mid-window with a realistic handful of open
	// exposure windows.
	Horizon = 30 * 24 * time.Hour
	Instant = 15 * 24 * time.Hour
)

// Catalog builds a catalog of n vulnerabilities spread over the products
// and the horizon. Severity is 1.0: every open window compromises its
// whole bucket, the paper's zero-day worst case and the regime where the
// grouped take needs no boundary-class resolution.
func Catalog(n int) (*vuln.Catalog, error) {
	cat := vuln.NewCatalog()
	span := Horizon - 24*time.Hour
	for i := 0; i < n; i++ {
		disclosed := time.Duration(i) * span / time.Duration(n)
		v := vuln.Vulnerability{
			ID:        vuln.ID(fmt.Sprintf("CVE-s-%04d", i)),
			Class:     config.ClassOperatingSystem,
			Product:   fmt.Sprintf("os-%d", i%Products),
			Disclosed: disclosed,
			PatchAt:   disclosed + 48*time.Hour,
			Severity:  1,
		}
		if err := cat.Add(v); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// Registry builds a registry of n declared replicas striped across the
// products, power classes and latency classes. Replica IDs are monotonic,
// so joins hit the registry's append fast path — building the 1M rung is
// dominated by config digesting, not by ordering.
func Registry(n int) (*registry.Registry, error) {
	configs := make([]config.Configuration, Products)
	for i := range configs {
		configs[i] = config.MustNew(config.Component{
			Class: config.ClassOperatingSystem, Name: fmt.Sprintf("os-%d", i), Version: "1",
		})
	}
	reg := registry.New(nil)
	for i := 0; i < n; i++ {
		id := registry.ReplicaID(fmt.Sprintf("r-%07d", i))
		err := reg.JoinDeclared(id, configs[i%Products],
			float64(1+i%PowerClasses), time.Duration(i%LatencyClasses)*12*time.Hour)
		if err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// Rung is one point of the scale ladder.
type Rung struct {
	Replicas int `json:"replicas"`
	Vulns    int `json:"vulns"`
}

// Measurement is one rung's results in ns/op per path, the resident bytes
// per replica, and the headline ratio: how much cheaper absorbing a single
// mutation is than the flat cold rebuild the incremental path replaced.
type Measurement struct {
	Replicas           int     `json:"replicas"`
	Vulns              int     `json:"vulns"`
	FlatNs             float64 `json:"flatNs"`
	ColdNs             float64 `json:"coldNs"`
	IncrementalNs      float64 `json:"incrementalNs"`
	CachedNs           float64 `json:"cachedNs"`
	WorstNs            float64 `json:"worstNs"`
	ResidentBytes      float64 `json:"residentBytesPerReplica"`
	SpeedupIncremental float64 `json:"speedupIncrementalVsFlat"`
}

// timeOp measures ns/op for op: one warm-up call, then as many timed calls
// as fit in budget (at least one). The GC runs to completion first so the
// garbage of the previous path (the flat path at the 1M rung produces
// gigabytes of it) is not billed to this one.
func timeOp(budget time.Duration, op func() error) (float64, error) {
	if err := op(); err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	iters := 0
	for {
		if err := op(); err != nil {
			return 0, err
		}
		iters++
		if elapsed := time.Since(start); elapsed >= budget {
			return float64(elapsed.Nanoseconds()) / float64(iters), nil
		}
	}
}

// MeasureRung builds the rung's workload, measures what it keeps resident
// and times the five paths. budget bounds the timed loop per path (a
// single long operation may exceed it).
func MeasureRung(r Rung, budget time.Duration) (Measurement, error) {
	m := Measurement{Replicas: r.Replicas, Vulns: r.Vulns}
	cat, err := Catalog(r.Vulns)
	if err != nil {
		return m, err
	}

	// Resident: the registry, its snapshot and an assessed monitor, before
	// any path below caches a per-replica view (the flat path does).
	base := metrics.LiveHeap()
	reg, err := Registry(r.Replicas)
	if err != nil {
		return m, err
	}
	resident, err := core.NewMonitor(reg, core.WithCatalog(cat), core.WithSummaryFaults())
	if err != nil {
		return m, err
	}
	if _, err := resident.Assess(Instant); err != nil {
		return m, err
	}
	m.ResidentBytes = float64(int64(metrics.LiveHeap())-int64(base)) / float64(r.Replicas)
	runtime.KeepAlive(resident)

	snap, err := reg.Snapshot(registry.DefaultWeighting)
	if err != nil {
		return m, err
	}

	// Flat: the per-replica cold path over the materialised membership.
	replicas := snap.Replicas()
	m.FlatNs, err = timeOp(budget, func() error {
		_, err := vuln.Inject(cat, replicas, Instant)
		return err
	})
	if err != nil {
		return m, err
	}

	// Cold: fresh monitor, first assessment = full bucketed rebuild.
	m.ColdNs, err = timeOp(budget, func() error {
		mon, err := core.NewMonitor(reg, core.WithCatalog(cat), core.WithSummaryFaults())
		if err != nil {
			return err
		}
		_, err = mon.Assess(Instant)
		return err
	})
	if err != nil {
		return m, err
	}

	// Incremental: one long-lived monitor absorbing one mutation per op.
	mon, err := core.NewMonitor(reg, core.WithCatalog(cat), core.WithSummaryFaults())
	if err != nil {
		return m, err
	}
	power := 0
	m.IncrementalNs, err = timeOp(budget, func() error {
		power++
		if err := reg.SetPower("r-0000000", float64(1+power%PowerClasses)); err != nil {
			return err
		}
		_, err := mon.Assess(Instant)
		return err
	})
	if err != nil {
		return m, err
	}

	// Cached: unchanged registry, pure injector evaluation.
	m.CachedNs, err = timeOp(budget, func() error {
		_, err := mon.Assess(Instant)
		return err
	})
	if err != nil {
		return m, err
	}

	// Worst: the same single mutation, then a fresh worst-window sweep (the
	// mutation invalidates the monitor's memoised one).
	m.WorstNs, err = timeOp(budget, func() error {
		power++
		if err := reg.SetPower("r-0000000", float64(1+power%PowerClasses)); err != nil {
			return err
		}
		_, err := mon.WorstAssessment(Horizon)
		return err
	})
	if err != nil {
		return m, err
	}

	if m.IncrementalNs > 0 {
		m.SpeedupIncremental = m.FlatNs / m.IncrementalNs
	}
	return m, nil
}

// DefaultRungs is the CI-sized ladder; FullRungs adds the million-replica
// rungs behind the explicit opt-in (-scale-full / -full).
func DefaultRungs() []Rung {
	var rungs []Rung
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, v := range []int{50, 500} {
			rungs = append(rungs, Rung{Replicas: n, Vulns: v})
		}
	}
	return rungs
}

// FullRungs is DefaultRungs plus the 1M rungs.
func FullRungs() []Rung {
	rungs := DefaultRungs()
	for _, v := range []int{50, 500} {
		rungs = append(rungs, Rung{Replicas: 1_000_000, Vulns: v})
	}
	return rungs
}
