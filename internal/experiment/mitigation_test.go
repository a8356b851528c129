package experiment

import (
	"testing"
	"time"
)

func TestPatchLatencySweep(t *testing.T) {
	latencies := []time.Duration{0, 24 * time.Hour, 7 * 24 * time.Hour}
	_, rows, err := PatchLatencySweep(latencies)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Diversity bounds the amplitude at every latency.
		if row.DiverseWorst > 0.25+1e-9 {
			t.Fatalf("diverse worst = %v at latency %v", row.DiverseWorst, row.PatchLatency)
		}
		if !row.DiverseSafe {
			t.Fatalf("diverse fleet unsafe at latency %v", row.PatchLatency)
		}
		// Monoculture loses everything during the window regardless of
		// latency (the window always has nonzero width here).
		if row.MonoWorst != 1 {
			t.Fatalf("mono worst = %v at latency %v, want 1", row.MonoWorst, row.PatchLatency)
		}
		if row.MonoSafe {
			t.Fatalf("monoculture reported safe at latency %v", row.PatchLatency)
		}
	}
}

func TestPoolSplitting(t *testing.T) {
	_, rows, err := PoolSplitting([]int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	// k=1 is the unmodified snapshot.
	if rows[0].FaultsToHalf != 2 {
		t.Fatalf("unsplit faults = %d, want 2", rows[0].FaultsToHalf)
	}
	// Splitting strictly increases entropy and (weakly) resilience.
	for i := 1; i < len(rows); i++ {
		if rows[i].Entropy <= rows[i-1].Entropy {
			t.Fatalf("entropy not increasing at split %d", rows[i].SplitInto)
		}
		if rows[i].FaultsToHalf < rows[i-1].FaultsToHalf {
			t.Fatalf("resilience decreased at split %d", rows[i].SplitInto)
		}
	}
	// Splitting Foundry into 8 shards: the top two remaining pools
	// (AntPool 20% + F2Pool 13%) no longer reach 50% alone.
	last := rows[len(rows)-1]
	if last.FaultsToHalf <= 2 {
		t.Fatalf("8-way split still falls to %d faults", last.FaultsToHalf)
	}
	if _, _, err := PoolSplitting([]int{0}); err == nil {
		t.Fatal("split 0 accepted")
	}
}

func TestDelegationCollapse(t *testing.T) {
	_, rows, err := DelegationCollapse(1000, []float64{0, 0.25, 0.5, 0.75, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	// p=0: 1000 unique configs, near-maximal entropy.
	if rows[0].Entropy < 9.9 {
		t.Fatalf("undelegated entropy = %v, want ≈ log2(1000)", rows[0].Entropy)
	}
	// Entropy collapses monotonically with delegation.
	for i := 1; i < len(rows); i++ {
		if rows[i].Entropy >= rows[i-1].Entropy {
			t.Fatalf("entropy not decreasing at p=%v", rows[i].DelegatedFraction)
		}
	}
	// Heavy delegation: two exchange faults control a majority.
	last := rows[len(rows)-1]
	if last.FaultsToHalf != 2 {
		t.Fatalf("p=0.95 faults = %d, want 2", last.FaultsToHalf)
	}
	if _, _, err := DelegationCollapse(5, []float64{0.5}); err == nil {
		t.Fatal("tiny n accepted")
	}
	if _, _, err := DelegationCollapse(100, []float64{1.5}); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

// TestDelegationCollapseUndelegatedMajority: with nothing delegated, n
// equal stakeholders are n unique configurations, and for even n exactly
// half of them is not a majority (Sec. II-C counts faults that strictly
// exceed f = 1/2), so breaking the system takes n/2 + 1 faults.
func TestDelegationCollapseUndelegatedMajority(t *testing.T) {
	for _, n := range []int{10, 200, 1000, 4096} {
		_, rows, err := DelegationCollapse(n, []float64{0})
		if err != nil {
			t.Fatal(err)
		}
		if got := rows[0].FaultsToHalf; got != n/2+1 {
			t.Errorf("n = %d: %d faults to exceed 1/2, want %d", n, got, n/2+1)
		}
	}
}

func TestChurnTrajectory(t *testing.T) {
	_, plain, err := ChurnTrajectory(20, 25, false, 11)
	if err != nil {
		t.Fatal(err)
	}
	_, capped, err := ChurnTrajectory(20, 25, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 20 || len(capped) != 20 {
		t.Fatalf("rows = %d/%d", len(plain), len(capped))
	}
	// After the population stabilises, the capped policy keeps max share
	// at the target while accept-all drifts above it.
	lastPlain, lastCapped := plain[len(plain)-1], capped[len(capped)-1]
	if lastCapped.MaxShare > 0.2+0.02 {
		t.Fatalf("capped max share = %v, exceeds target", lastCapped.MaxShare)
	}
	if lastPlain.MaxShare <= 0.2 {
		t.Fatalf("accept-all max share = %v, suspiciously low for Zipf joins", lastPlain.MaxShare)
	}
	if lastCapped.Entropy <= lastPlain.Entropy {
		t.Fatalf("cap did not improve entropy: %v vs %v", lastCapped.Entropy, lastPlain.Entropy)
	}
	// Determinism.
	_, again, err := ChurnTrajectory(20, 25, false, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != again[i] {
			t.Fatal("churn trajectory not deterministic")
		}
	}
	if _, _, err := ChurnTrajectory(0, 1, false, 1); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestHashrateDrift(t *testing.T) {
	_, rows, err := HashrateDrift(50, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 51 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Step 0 is the exact snapshot.
	if rows[0].FaultsToHalf != 2 {
		t.Fatalf("step 0 faults = %d, want 2", rows[0].FaultsToHalf)
	}
	// Entropy stays in a plausible band (no pool vanishes or explodes at
	// σ=0.1 over 50 steps) and the oligopoly persists.
	for _, r := range rows {
		if r.Entropy < 1 || r.Entropy > 4.1 {
			t.Fatalf("step %d entropy %v out of band", r.Step, r.Entropy)
		}
		if r.FaultsToHalf < 1 || r.FaultsToHalf > 5 {
			t.Fatalf("step %d faults %d out of band", r.Step, r.FaultsToHalf)
		}
	}
	// Deterministic.
	_, again, _ := HashrateDrift(50, 0.1, 7)
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatal("drift not deterministic")
		}
	}
	if _, _, err := HashrateDrift(0, 0.1, 1); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, _, err := HashrateDrift(10, 0, 1); err == nil {
		t.Fatal("zero sigma accepted")
	}
}
