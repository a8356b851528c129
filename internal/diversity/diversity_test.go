package diversity

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestFromWeightsValidation(t *testing.T) {
	cases := map[string]float64{"neg": -1}
	if _, err := FromWeights(cases); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := FromWeights(map[string]float64{"nan": math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := FromWeights(map[string]float64{"inf": math.Inf(1)}); err == nil {
		t.Fatal("Inf accepted")
	}
}

func TestZeroWeightsKept(t *testing.T) {
	d, err := FromWeights(map[string]float64{"a": 1, "b": 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (zero entries kept)", d.Len())
	}
	if d.Support() != 1 {
		t.Fatalf("Support = %d, want 1", d.Support())
	}
}

func TestEntropyUniform8Is3Bits(t *testing.T) {
	// Example 1: "BFT protocols with 8 replicas, the entropy is already
	// higher (entropy is 3)".
	h, err := Uniform(8).Entropy()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(h, 3, 1e-12) {
		t.Fatalf("H(uniform-8) = %v, want 3", h)
	}
}

func TestEntropyZeroForSingleConfig(t *testing.T) {
	h, err := MustFromSlice([]float64{5}).Entropy()
	if err != nil {
		t.Fatal(err)
	}
	if h != 0 {
		t.Fatalf("H(single) = %v, want 0", h)
	}
}

func TestEntropyEmptyErrors(t *testing.T) {
	d, _ := FromWeights(nil)
	if _, err := d.Entropy(); err != ErrNoWeight {
		t.Fatalf("err = %v, want ErrNoWeight", err)
	}
	allZero := MustFromSlice([]float64{0, 0})
	if _, err := allZero.Entropy(); err != ErrNoWeight {
		t.Fatalf("err = %v, want ErrNoWeight", err)
	}
}

func TestEntropyScaleInvariant(t *testing.T) {
	d := MustFromSlice([]float64{1, 2, 3, 4})
	h1, _ := d.Entropy()
	scaled, err := d.Scale(1000)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := scaled.Entropy()
	if !almostEqual(h1, h2, 1e-12) {
		t.Fatalf("entropy changed under scaling: %v vs %v", h1, h2)
	}
}

func TestScaleValidation(t *testing.T) {
	d := Uniform(2)
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := d.Scale(f); err == nil {
			t.Fatalf("Scale(%v) accepted", f)
		}
	}
}

func TestNormalizedEntropy(t *testing.T) {
	ne, err := Uniform(16).NormalizedEntropy()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ne, 1, 1e-12) {
		t.Fatalf("normalized entropy of uniform = %v, want 1", ne)
	}
	ne, _ = MustFromSlice([]float64{1}).NormalizedEntropy()
	if ne != 0 {
		t.Fatalf("normalized entropy of singleton = %v, want 0", ne)
	}
	skew, _ := MustFromSlice([]float64{9, 1}).NormalizedEntropy()
	if skew <= 0 || skew >= 1 {
		t.Fatalf("skewed normalized entropy = %v, want in (0,1)", skew)
	}
}

func TestEffectiveConfigurations(t *testing.T) {
	ec, err := Uniform(8).EffectiveConfigurations()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ec, 8, 1e-9) {
		t.Fatalf("effective configs of uniform-8 = %v, want 8", ec)
	}
}

func TestSimpsonIndex(t *testing.T) {
	s, err := Uniform(4).SimpsonIndex()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s, 0.25, 1e-12) {
		t.Fatalf("Simpson of uniform-4 = %v, want 0.25", s)
	}
}

func TestIsUniformAndKappa(t *testing.T) {
	d := MustFromSlice([]float64{2, 2, 0, 2})
	if !d.IsUniform() {
		t.Fatal("uniform-with-zeros not recognized")
	}
	if !d.IsKappaOptimal(3) {
		t.Fatal("κ=3 optimality not recognized")
	}
	if d.IsKappaOptimal(4) {
		t.Fatal("wrong κ accepted")
	}
	k, ok := d.Kappa()
	if !ok || k != 3 {
		t.Fatalf("Kappa = %d,%v want 3,true", k, ok)
	}
	skew := MustFromSlice([]float64{1, 2})
	if _, ok := skew.Kappa(); ok {
		t.Fatal("skewed distribution reported κ-optimal")
	}
	var empty Distribution
	if empty.IsUniform() {
		t.Fatal("empty distribution reported uniform")
	}
}

// TestKappaToleranceRelative: Definition 1 compares units of 1e-9 exactly.
// Jitter below half a unit rounds away when a weight is converted; one
// unit apart, like a 10 % skew, is not κ-optimal.
func TestKappaToleranceRelative(t *testing.T) {
	if !MustFromSlice([]float64{1.0, 1.0 + 1e-12}).IsKappaOptimal(2) {
		t.Fatal("jitter below half a unit rejected")
	}
	for _, ws := range [][]float64{{1.0, 1.0 + 1e-9}, {1.0, 1.1}} {
		if MustFromSlice(ws).IsKappaOptimal(2) {
			t.Fatalf("%v accepted as optimal", ws)
		}
	}
}

func TestMinFaultsToExceed(t *testing.T) {
	// Oligopoly: two faults already control a majority.
	d := MustFromSlice([]float64{34.239, 19.981, 12.997, 11.348, 8.826})
	n, err := d.MinFaultsToExceed(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("faults to majority = %d, want 2 (34.2+20.0 > 50%% of 87.4)", n)
	}
	// Uniform-8 vs 1/3: need 3 configs (3/8 > 1/3).
	n, _ = Uniform(8).MinFaultsToExceed(1.0 / 3.0)
	if n != 3 {
		t.Fatalf("uniform-8 faults to 1/3 = %d, want 3", n)
	}
	// Impossible threshold.
	n, _ = Uniform(4).MinFaultsToExceed(1.0)
	if n != -1 {
		t.Fatalf("faults to exceed 1.0 = %d, want -1", n)
	}
	var empty Distribution
	if _, err := empty.MinFaultsToExceed(0.5); err != ErrNoWeight {
		t.Fatalf("err = %v, want ErrNoWeight", err)
	}
}

func TestMaxShareAndTopShares(t *testing.T) {
	d, _ := FromWeights(map[string]float64{"big": 6, "mid": 3, "small": 1})
	label, share, err := d.MaxShare()
	if err != nil {
		t.Fatal(err)
	}
	if label != "big" || !almostEqual(share, 0.6, 1e-12) {
		t.Fatalf("MaxShare = %s %v", label, share)
	}
	labels, shares, err := d.TopShares(2)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != "big" || labels[1] != "mid" {
		t.Fatalf("TopShares labels = %v", labels)
	}
	if !almostEqual(shares[0], 0.6, 1e-12) || !almostEqual(shares[1], 0.3, 1e-12) {
		t.Fatalf("TopShares shares = %v", shares)
	}
	// n beyond size clamps.
	labels, _, _ = d.TopShares(10)
	if len(labels) != 3 {
		t.Fatalf("TopShares(10) len = %d", len(labels))
	}
}

func TestWeightLookup(t *testing.T) {
	d, _ := FromWeights(map[string]float64{"x": 2.5})
	if d.Weight("x") != 2.5 {
		t.Fatalf("Weight(x) = %v", d.Weight("x"))
	}
	if d.Weight("missing") != 0 {
		t.Fatalf("Weight(missing) = %v", d.Weight("missing"))
	}
}

func TestLabelsCopy(t *testing.T) {
	d, _ := FromWeights(map[string]float64{"a": 1})
	labels := d.Labels()
	labels[0] = "mutated"
	if d.Labels()[0] != "a" {
		t.Fatal("Labels exposed internal slice")
	}
}

// Property: 0 <= H <= log2(support) for any valid distribution, maximum
// attained exactly by uniform distributions (Sec. IV-A's two conditions).
func TestPropEntropyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		n := 1 + rng.Intn(40)
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = rng.Float64() * 100
		}
		d := MustFromSlice(ws)
		h, err := d.Entropy()
		if err != nil {
			return d.Support() == 0
		}
		return h >= -1e-12 && h <= math.Log2(float64(d.Support()))+1e-9
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: doubling every weight (a population merged with itself)
// leaves the relative abundance and hence the entropy unchanged — the
// Prop. 1 escape clause.
func TestPropSelfMergeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		n := 1 + rng.Intn(20)
		ws := make([]float64, n)
		any := false
		for i := range ws {
			ws[i] = float64(rng.Intn(50))
			if ws[i] > 0 {
				any = true
			}
		}
		if !any {
			return true
		}
		d := MustFromSlice(ws)
		m, err := d.Scale(2)
		if err != nil {
			return false
		}
		p1, err1 := d.Probabilities()
		p2, err2 := m.Probabilities()
		if err1 != nil || err2 != nil || !slices.Equal(p1, p2) {
			return false
		}
		h1, err1 := d.Entropy()
		h2, err2 := m.Entropy()
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(h1, h2, 1e-9)
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinFaultsToExceed is monotone non-increasing in diversity —
// concentrating weight onto fewer configs can only lower the fault count —
// and always between 1 and support for thresholds in (0,1).
func TestPropMinFaultsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func() bool {
		n := 1 + rng.Intn(30)
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = rng.Float64()*10 + 0.01
		}
		d := MustFromSlice(ws)
		threshold := rng.Float64() * 0.99
		k, err := d.MinFaultsToExceed(threshold)
		if err != nil {
			return false
		}
		return k >= 1 && k <= d.Support()
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
