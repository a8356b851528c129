package assessbench

import (
	"testing"

	"repro/internal/core"
)

// sweepCounts runs one worst-window sweep on a rung and returns how many
// critical instants it covered and how many it evaluated exactly.
func sweepCounts(t *testing.T, replicas, vulns int) (instants, evaluated uint64) {
	t.Helper()
	cat, err := Catalog(vulns)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Registry(replicas)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := core.NewMonitor(reg, core.WithCatalog(cat), core.WithSummaryFaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.WorstAssessment(Horizon); err != nil {
		t.Fatal(err)
	}
	s := mon.Stats()
	if s.WorstSweeps != 1 {
		t.Fatalf("one worst assessment ran %d sweeps", s.WorstSweeps)
	}
	return s.WorstInstants, s.WorstEvaluated
}

// TestWorstSweepPruning pins what the bound buys on the two catalog shapes
// the benchmarks run. On the 50-vulnerability tenant (severity 1, so the
// bound is exact) all but a handful of the ~285 instants are pruned. On the
// saturated 500-vulnerability catalog every bucket is always fully open and
// every bound ties at the total; the first instant already takes the total,
// and a later instant cannot win a tie, so no other is evaluated.
func TestWorstSweepPruning(t *testing.T) {
	instants, evaluated := sweepCounts(t, 2000, 50)
	if instants < 250 || instants > 300 || evaluated > 8 {
		t.Errorf("2000x50: evaluated %d of %d instants, want at most 8 of ~285", evaluated, instants)
	}
	instants, evaluated = sweepCounts(t, 2000, 500)
	if instants < 2000 || evaluated > 2 {
		t.Errorf("2000x500: evaluated %d of %d instants, want at most 2", evaluated, instants)
	}
}
