package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Sweep: run N generated timelines across the profiles, check every run
// against the invariants, and aggregate per-profile percentile statistics.
// Run i is timeline Profiles()[i%P].Generate(seed, i/P) — a pure address —
// and results land in indexed slots, so the report is byte-identical for
// every worker count. The report deliberately carries no wall-clock data:
// a committed BENCH_sweep.json regenerates bit-for-bit.

// SweepOptions configures one sweep.
type SweepOptions struct {
	// Profiles names the generator families to sweep (canonical order is
	// kept regardless of the order given); empty means all of them.
	Profiles []string
	// Runs is the total number of generated timelines across all profiles.
	Runs int
	// Seed is the base seed every generation and run derives from.
	Seed int64
	// Workers caps the worker pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Invariants are the checks applied to every run; nil means
	// DefaultInvariants().
	Invariants []Invariant
}

// SweepRun is one generated run's outcome.
type SweepRun struct {
	Name        string      `json:"name"`
	Profile     string      `json:"profile"`
	Index       int         `json:"index"`
	Records     int         `json:"records"`
	Replicas    int         `json:"replicas"`
	MinEntropy  float64     `json:"min_entropy"`
	MaxComp     float64     `json:"max_compromised"`
	WorstWindow float64     `json:"worst_window"`
	Unsafe      int         `json:"unsafe_records"`
	Violations  []Violation `json:"violations,omitempty"`
}

// Percentiles condenses one metric across a profile's runs.
type Percentiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func percentiles(xs []float64) Percentiles {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Percentiles{
		P50: metrics.Quantile(sorted, 0.50),
		P90: metrics.Quantile(sorted, 0.90),
		P99: metrics.Quantile(sorted, 0.99),
		Max: sorted[len(sorted)-1],
	}
}

// ProfileStats aggregates one profile's runs.
type ProfileStats struct {
	Profile     string      `json:"profile"`
	Runs        int         `json:"runs"`
	UnsafeRuns  int         `json:"unsafe_runs"`
	Violations  int         `json:"violations"`
	MaxComp     Percentiles `json:"max_compromised"`
	WorstWindow Percentiles `json:"worst_window"`
	MinEntropy  Percentiles `json:"min_entropy"`
}

// SweepReport is the aggregate a sweep emits (BENCH_sweep.json).
type SweepReport struct {
	Seed       int64          `json:"seed"`
	Runs       int            `json:"runs"`
	Profiles   []ProfileStats `json:"profiles"`
	Violating  []SweepRun     `json:"violating_runs,omitempty"`
	Invariants []string       `json:"invariants"`
}

// MarshalIndent renders the canonical report artifact.
func (r *SweepReport) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode sweep report: %w", err)
	}
	return append(b, '\n'), nil
}

// sweepProfiles resolves the option's profile selection in canonical order.
func sweepProfiles(names []string) ([]GenProfile, error) {
	if len(names) == 0 {
		return Profiles(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if _, ok := LookupProfile(n); !ok {
			return nil, fmt.Errorf("scenario: unknown profile %q (have %v)", n, ProfileNames())
		}
		want[n] = true
	}
	var out []GenProfile
	for _, p := range Profiles() {
		if want[p.Name] {
			out = append(out, p)
		}
	}
	return out, nil
}

// Sweep generates and checks opts.Runs timelines and aggregates the
// report. The first run error aborts the sweep (generated timelines are
// expected to run clean; an error means a generator or engine bug, not a
// property violation).
//
// Each worker carries one workerStore from one timeline to the next: the
// generator's source and event storage, the configurations its joins use,
// the oracle's buffers and injectors, and the trace's records, which go
// back to the store once the run is summarised. Every value is still
// recomputed from the run's own inputs, so the report does not depend on
// which worker ran which timeline. One worker is the one-worker case of the
// same pool.
func Sweep(ctx context.Context, opts SweepOptions) (*SweepReport, error) {
	if opts.Runs <= 0 {
		return nil, fmt.Errorf("scenario: non-positive sweep size %d", opts.Runs)
	}
	profiles, err := sweepProfiles(opts.Profiles)
	if err != nil {
		return nil, err
	}
	invs := opts.Invariants
	if invs == nil {
		invs = DefaultInvariants()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opts.Runs {
		workers = opts.Runs
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	runs := make([]SweepRun, opts.Runs)
	errs := make([]error, opts.Runs)
	runOne := func(i int, st *workerStore) error {
		p := profiles[i%len(profiles)]
		index := i / len(profiles)
		tl := p.generate(opts.Seed, index, st)
		res, violations, err := CheckRun(tl.Def(), opts.Seed, invs, withStore(st))
		if err != nil {
			return fmt.Errorf("%s: %w", tl.Name, err)
		}
		s := res.Summary()
		worst := 0.0
		for _, rec := range res.Records {
			if rec.WorstFraction > worst {
				worst = rec.WorstFraction
			}
		}
		st.recycle(tl, res)
		runs[i] = SweepRun{
			Name:        tl.Name,
			Profile:     p.Name,
			Index:       index,
			Records:     s.Records,
			Replicas:    s.FinalReplicas,
			MinEntropy:  s.MinEntropy,
			MaxComp:     s.MaxComp,
			WorstWindow: worst,
			Unsafe:      s.UnsafeRecords,
			Violations:  violations,
		}
		return nil
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := new(workerStore)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= opts.Runs {
					return
				}
				if err := runOne(i, st); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return nil, err
	}

	// Serial aggregation in run order: identical for every worker count.
	report := &SweepReport{Seed: opts.Seed, Runs: opts.Runs}
	for _, inv := range invs {
		report.Invariants = append(report.Invariants, inv.Name)
	}
	for _, p := range profiles {
		var maxComp, worst, minEnt []float64
		stats := ProfileStats{Profile: p.Name}
		for _, r := range runs {
			if r.Profile != p.Name {
				continue
			}
			stats.Runs++
			if r.Unsafe > 0 {
				stats.UnsafeRuns++
			}
			stats.Violations += len(r.Violations)
			maxComp = append(maxComp, r.MaxComp)
			worst = append(worst, r.WorstWindow)
			minEnt = append(minEnt, r.MinEntropy)
			if len(r.Violations) > 0 {
				report.Violating = append(report.Violating, r)
			}
		}
		if stats.Runs > 0 {
			stats.MaxComp = percentiles(maxComp)
			stats.WorstWindow = percentiles(worst)
			stats.MinEntropy = percentiles(minEnt)
		}
		report.Profiles = append(report.Profiles, stats)
	}
	return report, nil
}
