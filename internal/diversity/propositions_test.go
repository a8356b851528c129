package diversity

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCheckProposition1Validation(t *testing.T) {
	if _, err := CheckProposition1(0, 1, nil); err == nil {
		t.Fatal("kappa=0 accepted")
	}
	if _, err := CheckProposition1(2, 0, []int{1, 1}); err == nil {
		t.Fatal("omega=0 accepted")
	}
	if _, err := CheckProposition1(2, 1, []int{1}); err == nil {
		t.Fatal("wrong additions length accepted")
	}
	if _, err := CheckProposition1(2, 1, []int{-1, 0}); err == nil {
		t.Fatal("negative addition accepted")
	}
}

func TestProposition1SkewedGrowthDecreasesEntropy(t *testing.T) {
	out, err := CheckProposition1(4, 2, []int{6, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Proportional {
		t.Fatal("skewed additions reported proportional")
	}
	if out.EntropyAfter >= out.EntropyBefore {
		t.Fatalf("entropy did not decrease: before %v after %v", out.EntropyBefore, out.EntropyAfter)
	}
	if !almostEqual(out.EntropyBefore, 2, 1e-12) {
		t.Fatalf("κ=4 optimal entropy = %v, want 2", out.EntropyBefore)
	}
}

func TestProposition1ProportionalGrowthPreservesEntropy(t *testing.T) {
	out, err := CheckProposition1(8, 3, []int{5, 5, 5, 5, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Proportional {
		t.Fatal("equal additions not reported proportional")
	}
	if !almostEqual(out.EntropyBefore, out.EntropyAfter, 1e-12) {
		t.Fatalf("proportional growth changed entropy: %v -> %v", out.EntropyBefore, out.EntropyAfter)
	}
}

// Property (Proposition 1): entropy never increases when abundance grows
// from a κ-optimal start, and is preserved iff growth is proportional.
func TestPropProposition1(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		kappa := 2 + rng.Intn(12)
		omega := 1 + rng.Intn(5)
		additions := make([]int, kappa)
		for i := range additions {
			additions[i] = rng.Intn(10)
		}
		out, err := CheckProposition1(kappa, omega, additions)
		if err != nil {
			return false
		}
		if out.EntropyAfter > out.EntropyBefore+1e-9 {
			return false // entropy increased: proposition violated
		}
		if out.Proportional && !almostEqual(out.EntropyBefore, out.EntropyAfter, 1e-9) {
			return false // proportional growth must preserve entropy
		}
		if !out.Proportional && out.EntropyAfter >= out.EntropyBefore-1e-12 {
			return false // strict decrease for non-proportional growth
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckProposition2Validation(t *testing.T) {
	if _, err := CheckProposition2(nil, 1, 1); err == nil {
		t.Fatal("empty base accepted")
	}
	if _, err := CheckProposition2([]float64{1}, -1, 1); err == nil {
		t.Fatal("negative added accepted")
	}
	if _, err := CheckProposition2([]float64{1}, 1, -1); err == nil {
		t.Fatal("negative tail power accepted")
	}
}

func TestProposition2OligopolyResilienceStuck(t *testing.T) {
	// Example 1's shape: a heavy oligopoly plus a growing uniform tail.
	oligopoly := []float64{34.239, 19.981, 12.997, 11.348, 8.826, 2.619,
		2.037, 1.649, 1.358, 1.261, 0.78, 0.68, 0.68, 0.39, 0.10, 0.10, 0.10}
	small, err := CheckProposition2(oligopoly, 10, 0.87)
	if err != nil {
		t.Fatal(err)
	}
	big, err := CheckProposition2(oligopoly, 1000, 0.87)
	if err != nil {
		t.Fatal(err)
	}
	// Resilience (faults to majority) does not improve with 100× more replicas.
	if big.FaultsToHalfAfter != small.FaultsToHalfAfter {
		t.Fatalf("tail growth changed fault resilience: %d vs %d",
			small.FaultsToHalfAfter, big.FaultsToHalfAfter)
	}
	if big.FaultsToHalfAfter != 2 {
		t.Fatalf("oligopoly majority takeover needs %d faults, want 2", big.FaultsToHalfAfter)
	}
}

func TestProposition2UniformGrowthHelps(t *testing.T) {
	// Identical relative abundances (all uniform): resilience scales.
	uniform8 := make([]float64, 8)
	for i := range uniform8 {
		uniform8[i] = 1
	}
	out, err := CheckProposition2(uniform8, 8, 8) // 8 more unit-power replicas
	if err != nil {
		t.Fatal(err)
	}
	if out.FaultsToHalfAfter <= out.FaultsToHalfBefore {
		t.Fatalf("uniform growth should raise resilience: %d -> %d",
			out.FaultsToHalfBefore, out.FaultsToHalfAfter)
	}
}

func TestCheckProposition3Validation(t *testing.T) {
	if _, err := CheckProposition3(0, 1); err == nil {
		t.Fatal("kappa=0 accepted")
	}
	if _, err := CheckProposition3(1, 0); err == nil {
		t.Fatal("omega=0 accepted")
	}
}

func TestProposition3Shape(t *testing.T) {
	base, err := CheckProposition3(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := CheckProposition3(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if grown.OperatorFaultsToHalf <= base.OperatorFaultsToHalf {
		t.Fatalf("operator resilience did not grow: %d -> %d",
			base.OperatorFaultsToHalf, grown.OperatorFaultsToHalf)
	}
	if grown.ConfigFaultsToHalf != base.ConfigFaultsToHalf {
		t.Fatalf("config resilience should be ω-invariant: %d vs %d",
			base.ConfigFaultsToHalf, grown.ConfigFaultsToHalf)
	}
	// The trade-off: replicas (∝ message overhead) grow linearly in ω.
	if grown.Replicas != 4*base.Replicas {
		t.Fatalf("replicas = %d, want %d", grown.Replicas, 4*base.Replicas)
	}
}

// Property (Proposition 3): operator faults to half = floor(κω/2)+1 for
// unit-power (κ,ω)-optimal populations; config faults = floor(κ/2)+1.
func TestPropProposition3ClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	f := func() bool {
		kappa := 1 + rng.Intn(16)
		omega := 1 + rng.Intn(8)
		out, err := CheckProposition3(kappa, omega)
		if err != nil {
			return false
		}
		wantOp := kappa*omega/2 + 1
		wantCfg := kappa/2 + 1
		return out.OperatorFaultsToHalf == wantOp && out.ConfigFaultsToHalf == wantCfg
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
