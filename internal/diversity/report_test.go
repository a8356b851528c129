package diversity

import (
	"cmp"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vuln"
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

// exactMinFaults is the reference fault count in math/big.Rat: the fewest
// of units, largest first, whose sum is strictly more than num/den of
// their total, or -1 when none is.
func exactMinFaults(units []uint64, num, den int64) int {
	us := slices.Clone(units)
	slices.SortFunc(us, func(a, b uint64) int { return cmp.Compare(b, a) })
	total := new(big.Rat)
	for _, u := range us {
		total.Add(total, new(big.Rat).SetUint64(u))
	}
	limit := total.Mul(total, big.NewRat(num, den))
	cum := new(big.Rat)
	for i, u := range us {
		if u == 0 {
			break
		}
		if cum.Add(cum, new(big.Rat).SetUint64(u)).Cmp(limit) > 0 {
			return i + 1
		}
	}
	return -1
}

// TestPropReportEqualsIndividualMethods pins the one-pass report to the
// individual metric methods bit for bit: every field with ==, no
// tolerance. The fault counts must also equal the math/big.Rat walk.
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
		kappa, _ := d.Kappa()
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
			t.Fatalf("case %d (%v):\nreport  %+v\nmethods %+v", n, d.units, r, want)
		}
		if wantThird, wantHalf := exactMinFaults(d.units, 1, 3), exactMinFaults(d.units, 1, 2); third != wantThird || half != wantHalf {
			t.Fatalf("case %d (%v): MinFaultsToExceed %d/%d, exact %d/%d", n, d.units, third, half, wantThird, wantHalf)
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
		// One-decimal powers whose float shares sum past the boundary.
		{[]float64{0.2, 0.2, 0.2, 0.3}, 2, 2}, // 0.3 of 0.9 is exactly 1/3
		{[]float64{0.3, 0.3, 0.3}, 2, 2},      // 0.3 of 0.9 is exactly 1/3
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
	// {0.3 ×3, 0.4, 0.7, 0.6 ×3}: 0.7 + 0.6 + 0.6 is exactly half of 3.8,
	// so the operator adversary needs a fourth replica.
	var members []Member
	for _, p := range []float64{0.3, 0.3, 0.3, 0.4, 0.7, 0.6, 0.6, 0.6} {
		members = append(members, Member{Label: fmt.Sprint(p), Power: p})
	}
	pop, err := NewPopulation(members)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ReportForPopulation(pop)
	if err != nil {
		t.Fatal(err)
	}
	classes := []PowerClass{{3e8, 3}, {4e8, 1}, {7e8, 1}, {6e8, 3}}
	if agg, _ := MinOperatorFaultsForClasses(classes, 0.5); r.MinOperatorFaultsToHalf != 4 || agg != 4 {
		t.Errorf("exact-half fleet: operator faults to half = %d (classes %d), want 4", r.MinOperatorFaultsToHalf, agg)
	}
}

// TestMinOperatorFaultsIgnoresClassOrder: a snapshot hands over its power
// classes in map order, so shuffled classes must give the same answer. The
// first fleet, {0.7, 0.6 ×3, 0.4, 0.3 ×3}, sits on the half boundary.
func TestMinOperatorFaultsIgnoresClassOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	fleets := [][]PowerClass{{{7e8, 1}, {6e8, 3}, {4e8, 1}, {3e8, 3}}}
	for len(fleets) < 300 {
		var fleet []PowerClass
		for _, tenths := range rng.Perm(20)[:2+rng.Intn(6)] {
			fleet = append(fleet, PowerClass{Units: uint64(tenths+1) * 1e8, Count: 1 + rng.Intn(3)})
		}
		fleets = append(fleets, fleet)
	}
	for _, fleet := range fleets {
		for _, threshold := range []float64{1.0 / 3.0, 0.5} {
			want, err := MinOperatorFaultsForClasses(fleet, threshold)
			if err != nil {
				t.Fatal(err)
			}
			for shuffle := 0; shuffle < 20; shuffle++ {
				rng.Shuffle(len(fleet), func(i, j int) { fleet[i], fleet[j] = fleet[j], fleet[i] })
				if got, _ := MinOperatorFaultsForClasses(fleet, threshold); got != want {
					t.Fatalf("%v at %v: %d faults, %d in another order", fleet, threshold, got, want)
				}
			}
		}
	}
}

// TestReportForAggregatesIgnoresClassOrder: a snapshot hands over its
// power classes and bucket counts in whatever order it holds them. On
// one-decimal powers every listing gives the same report to the last bit.
func TestReportForAggregatesIgnoresClassOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for c := 0; c < 300; c++ {
		var classes []PowerClass
		var abundance []int
		var labels []string
		var units []uint64
		members := 0
		for i, tenths := range rng.Perm(20)[:1+rng.Intn(6)] {
			pc := PowerClass{Units: uint64(tenths+1) * 1e8, Count: 1 + rng.Intn(3)}
			classes = append(classes, pc)
			abundance = append(abundance, pc.Count)
			labels, units = append(labels, fmt.Sprint(i)), append(units, pc.Units*uint64(pc.Count))
			members += pc.Count
		}
		d, err := FromSorted(labels, units)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReportForAggregates(d, members, abundance, classes)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 10; s++ {
			rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
			rng.Shuffle(len(abundance), func(i, j int) { abundance[i], abundance[j] = abundance[j], abundance[i] })
			got, err := ReportForAggregates(d, members, abundance, classes)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("case %d: report %+v, %+v in another class order", c, got, want)
			}
		}
	}
}

func TestReportNoWeight(t *testing.T) {
	for _, d := range []Distribution{{}, MustFromSlice([]float64{0, 0, 0})} {
		if _, err := ReportForDistribution(d); !errors.Is(err, ErrNoWeight) {
			t.Fatalf("ReportForDistribution(%v) error = %v, want ErrNoWeight", d.units, err)
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
		units := make([]uint64, len(labels))
		for i, l := range labels {
			if units[i], err = vuln.PowerUnits(m[l]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := FromSorted(labels, units)
		if err != nil {
			t.Fatal(err)
		}
		if got.total != want.total || fmt.Sprint(got.labels, got.units) != fmt.Sprint(want.labels, want.units) {
			t.Fatalf("FromSorted = %+v, FromWeights = %+v", got, want)
		}
	}
}

func TestFromSortedValidation(t *testing.T) {
	for name, c := range map[string]struct {
		labels []string
		units  []uint64
	}{
		"unsorted":          {[]string{"b", "a"}, []uint64{1, 1}},
		"duplicate":         {[]string{"a", "a"}, []uint64{1, 1}},
		"past the ceiling":  {[]string{"a", "b"}, []uint64{vuln.MaxPowerUnits, 1}},
		"length mismatch":   {[]string{"a", "b"}, []uint64{1}},
		"one label too big": {[]string{"a"}, []uint64{vuln.MaxPowerUnits + 1}},
	} {
		if _, err := FromSorted(c.labels, c.units); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}
	if d, err := FromSorted(nil, nil); err != nil || d.Len() != 0 {
		t.Errorf("empty input: %v, %v", d, err)
	}
}

// TestReportAllocations pins the one-pass report's allocation count: the
// normalized weights and one sorted copy of the units are all it needs.
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
