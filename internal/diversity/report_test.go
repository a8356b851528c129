package diversity

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randomReportDistribution draws one distribution for the bit-identity
// property: arbitrary positive weights with a sprinkling of zeros, a single
// label, all-equal weights (κ-optimal), and integral shapes whose cumulative
// shares land exactly on the 1/3 and 1/2 thresholds MinFaultsToExceed
// compares against with a strict >.
func randomReportDistribution(rng *rand.Rand) Distribution {
	var ws []float64
	switch rng.Intn(6) {
	case 0: // arbitrary, with zero weights
		ws = make([]float64, 1+rng.Intn(24))
		for i := range ws {
			if rng.Intn(4) > 0 {
				ws[i] = rng.Float64() * float64(1+rng.Intn(1000))
			}
		}
		ws[rng.Intn(len(ws))] = 1 + rng.Float64()
	case 1: // one label
		ws = []float64{rng.Float64() + 0.5}
	case 2: // all equal, possibly padded with zeros
		w := float64(1 + rng.Intn(9))
		ws = make([]float64, 1+rng.Intn(16))
		for i := range ws {
			ws[i] = w
		}
		for z := rng.Intn(3); z > 0; z-- {
			ws = append(ws, 0)
		}
	case 3: // k thirds: the largest share is exactly 1/3
		unit := float64(1 + rng.Intn(50))
		ws = []float64{unit, unit, unit}
	case 4: // halves: the two largest cumulate to exactly 1/2, then 1
		unit := float64(1 + rng.Intn(50))
		ws = [][]float64{{unit, unit}, {2 * unit, unit, unit}, {unit, unit, unit, unit}}[rng.Intn(3)]
	default: // small integers: plenty of ties and exact fractions
		ws = make([]float64, 2+rng.Intn(10))
		for i := range ws {
			ws[i] = float64(rng.Intn(4))
		}
		ws[0] = 1
	}
	rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return MustFromSlice(ws)
}

// descendingMinFaults is MinFaultsToExceed as it was written before the
// one-pass report: a descending sort and a forward walk.
func descendingMinFaults(t *testing.T, d Distribution, threshold float64) int {
	t.Helper()
	ps, err := d.Probabilities()
	if err != nil {
		t.Fatal(err)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ps)))
	cum := 0.0
	for i, p := range ps {
		if p <= 0 {
			break
		}
		cum += p
		if cum > threshold {
			return i + 1
		}
	}
	return -1
}

// TestPropReportEqualsIndividualMethods pins the one-pass report to the
// individual metric methods bit for bit: every field with ==, no tolerance.
func TestPropReportEqualsIndividualMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 0; n < 2000; n++ {
		d := randomReportDistribution(rng)
		r, err := ReportForDistribution(d)
		if err != nil {
			t.Fatalf("case %d: %v", n, err)
		}
		must := func(v float64, err error) float64 {
			if err != nil {
				t.Fatalf("case %d: %v", n, err)
			}
			return v
		}
		_, maxShare, err := d.MaxShare()
		if err != nil {
			t.Fatalf("case %d: %v", n, err)
		}
		kappa, _ := d.Kappa(0)
		third, err := d.MinFaultsToExceed(1.0 / 3.0)
		if err != nil {
			t.Fatalf("case %d: %v", n, err)
		}
		half, err := d.MinFaultsToExceed(0.5)
		if err != nil {
			t.Fatalf("case %d: %v", n, err)
		}
		want := Report{
			Support:                 d.Support(),
			Entropy:                 must(d.Entropy()),
			NormalizedEntropy:       must(d.NormalizedEntropy()),
			EffectiveConfigurations: must(d.EffectiveConfigurations()),
			SimpsonIndex:            must(d.SimpsonIndex()),
			MaxShare:                maxShare,
			Kappa:                   kappa,
			MinConfigFaultsToThird:  third,
			MinConfigFaultsToHalf:   half,
		}
		if r != want {
			t.Fatalf("case %d (%v):\nreport  %+v\nmethods %+v", n, d.weights, r, want)
		}
		if third != descendingMinFaults(t, d, 1.0/3.0) || half != descendingMinFaults(t, d, 0.5) {
			t.Fatalf("case %d (%v): MinFaultsToExceed %d/%d differs from the descending walk", n, d.weights, third, half)
		}
	}
}

func TestReportThresholdsAreStrict(t *testing.T) {
	for _, c := range []struct {
		ws          []float64
		third, half int
	}{
		{[]float64{1, 1, 1}, 2, 2},    // 1/3 does not exceed 1/3
		{[]float64{1, 1}, 1, 2},       // 1/2 does not exceed 1/2
		{[]float64{2, 1, 1}, 1, 2},    // 1/2 then 3/4
		{[]float64{1, 1, 1, 1}, 2, 3}, // 1/4, 1/2, 3/4
		{[]float64{0, 7, 0}, 1, 1},    // zeros never count
	} {
		r, err := ReportForDistribution(MustFromSlice(c.ws))
		if err != nil {
			t.Fatal(err)
		}
		if r.MinConfigFaultsToThird != c.third || r.MinConfigFaultsToHalf != c.half {
			t.Errorf("%v: faults to third/half = %d/%d, want %d/%d",
				c.ws, r.MinConfigFaultsToThird, r.MinConfigFaultsToHalf, c.third, c.half)
		}
	}
}

func TestReportNoWeight(t *testing.T) {
	for _, d := range []Distribution{{}, MustFromSlice([]float64{0, 0, 0})} {
		if _, err := ReportForDistribution(d); !errors.Is(err, ErrNoWeight) {
			t.Fatalf("ReportForDistribution(%v) error = %v, want ErrNoWeight", d.weights, err)
		}
	}
}

func TestFromSortedMatchesFromWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 0; n < 200; n++ {
		k := rng.Intn(20)
		m := make(map[string]float64, k)
		for i := 0; i < k; i++ {
			m[fmt.Sprintf("cfg-%03d", rng.Intn(500))] = float64(rng.Intn(3)) * rng.Float64()
		}
		want, err := FromWeights(m)
		if err != nil {
			t.Fatal(err)
		}
		labels := want.Labels()
		weights := make([]float64, len(labels))
		for i, l := range labels {
			weights[i] = m[l]
		}
		got, err := FromSorted(labels, weights)
		if err != nil {
			t.Fatal(err)
		}
		if got.total != want.total || fmt.Sprint(got.labels, got.weights) != fmt.Sprint(want.labels, want.weights) {
			t.Fatalf("FromSorted = %+v, FromWeights = %+v", got, want)
		}
	}
}

func TestFromSortedValidation(t *testing.T) {
	for name, c := range map[string]struct {
		labels  []string
		weights []float64
	}{
		"unsorted":        {[]string{"b", "a"}, []float64{1, 1}},
		"duplicate":       {[]string{"a", "a"}, []float64{1, 1}},
		"negative":        {[]string{"a", "b"}, []float64{1, -1}},
		"NaN":             {[]string{"a"}, []float64{math.NaN()}},
		"+Inf":            {[]string{"a"}, []float64{math.Inf(1)}},
		"-Inf":            {[]string{"a"}, []float64{math.Inf(-1)}},
		"length mismatch": {[]string{"a", "b"}, []float64{1}},
	} {
		if _, err := FromSorted(c.labels, c.weights); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}
	if d, err := FromSorted(nil, nil); err != nil || d.Len() != 0 {
		t.Errorf("empty input: %v, %v", d, err)
	}
}

// TestReportAllocations pins the one-pass report's allocation count: the
// normalized weights, sorted in place, are all it needs.
func TestReportAllocations(t *testing.T) {
	d := Uniform(32)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := ReportForDistribution(d); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Fatalf("ReportForDistribution allocates %.0f objects/op, want ≤ 3", got)
	}
}
