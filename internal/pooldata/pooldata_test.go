package pooldata

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/diversity"
	"repro/internal/vuln"
)

func TestSnapshotSharesSum(t *testing.T) {
	var sum float64
	for _, s := range BitcoinSnapshotPercent {
		sum += s
	}
	if math.Abs(sum-SnapshotSumPercent) > 1e-9 {
		t.Fatalf("SnapshotSumPercent = %v, recomputed %v", SnapshotSumPercent, sum)
	}
	// The paper rounds the sum to 99.13%; the exact list sums to 99.145.
	if math.Abs(sum-TopPoolsPercent) > 0.02 {
		t.Fatalf("snapshot sums to %v, too far from paper's %v", sum, TopPoolsPercent)
	}
}

func TestSnapshotHas17Pools(t *testing.T) {
	pools := BitcoinSnapshot()
	if len(pools) != 17 {
		t.Fatalf("%d pools, want 17", len(pools))
	}
	// Paper: "the largest mining pool, i.e., Foundry USA, controls over 34%".
	if pools[0].Name != "foundry-usa" || pools[0].Share <= 34 {
		t.Fatalf("largest pool = %+v", pools[0])
	}
	names := make(map[string]bool)
	for _, p := range pools {
		if names[p.Name] {
			t.Fatalf("duplicate pool name %s", p.Name)
		}
		names[p.Name] = true
	}
}

func TestSnapshotDistributionEntropyBelow3(t *testing.T) {
	// Example 1's headline: Bitcoin's best-case entropy is below 3 bits.
	h, err := SnapshotDistribution().Entropy()
	if err != nil {
		t.Fatal(err)
	}
	if h >= 3 {
		t.Fatalf("snapshot entropy = %v, want < 3", h)
	}
	if h < 2 {
		t.Fatalf("snapshot entropy = %v, implausibly low", h)
	}
}

func TestSnapshotTwoFaultsToMajority(t *testing.T) {
	// Foundry (34.2) + AntPool (20.0) > 50%: two faults break majority.
	n, err := SnapshotDistribution().MinFaultsToExceed(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("faults to majority = %d, want 2", n)
	}
}

func TestWithUniformTailValidation(t *testing.T) {
	if _, err := WithUniformTail(0); err == nil {
		t.Fatal("tail 0 accepted")
	}
	if _, err := WithUniformTail(100001); err == nil {
		t.Fatal("tail beyond cap accepted")
	}
}

func TestWithUniformTailShape(t *testing.T) {
	d, err := WithUniformTail(101)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "when x=101, it means that there are 118 miners in the system".
	if d.Support() != 118 {
		t.Fatalf("support = %d, want 118", d.Support())
	}
	// Each share is converted once to units of 1e-9, and 0.87/101 has more
	// than nine decimals, so the total is the sum of the converted shares.
	units := func(w float64) uint64 {
		u, err := vuln.PowerUnits(w)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	want := 101 * units(ResidualPercent/101)
	for _, share := range BitcoinSnapshotPercent {
		want += units(share)
	}
	if d.Total() != vuln.UnitsPower(want) {
		t.Fatalf("total = %v, want %v", d.Total(), vuln.UnitsPower(want))
	}
}

func TestFigure1SeriesMatchesDirectComputation(t *testing.T) {
	pts, err := Figure1Series(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 {
		t.Fatalf("%d points, want 50", len(pts))
	}
	for _, x := range []int{1, 7, 50} {
		d, err := WithUniformTail(x)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := d.Entropy()
		if err != nil {
			t.Fatal(err)
		}
		got := pts[x-1].Entropy
		if math.Abs(got-direct) > 1e-9 {
			t.Fatalf("x=%d: closed-form %v != direct %v", x, got, direct)
		}
		if pts[x-1].Miners != 17+x {
			t.Fatalf("x=%d: miners = %d, want %d", x, pts[x-1].Miners, 17+x)
		}
	}
}

func TestFigure1EntropyStaysBelow3(t *testing.T) {
	// The paper's Figure 1 claim: even at x=1000 the entropy is < 3, i.e.
	// below an 8-replica BFT cluster.
	pts, err := Figure1Series(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Entropy >= 3 {
			t.Fatalf("x=%d: entropy %v >= 3, contradicting Figure 1", p.TailMiners, p.Entropy)
		}
	}
	// And it is monotone increasing in x (more tail miners, more entropy).
	for i := 1; i < len(pts); i++ {
		if pts[i].Entropy <= pts[i-1].Entropy {
			t.Fatalf("entropy not increasing at x=%d", pts[i].TailMiners)
		}
	}
}

func TestFigure1SeriesValidation(t *testing.T) {
	if _, err := Figure1Series(0); err == nil {
		t.Fatal("maxTail 0 accepted")
	}
}

func TestSyntheticOligopoly(t *testing.T) {
	uniform, err := SyntheticOligopoly(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !uniform.IsKappaOptimal(16) {
		t.Fatal("s=0 should give a κ-optimal (uniform) distribution")
	}
	skewed, err := SyntheticOligopoly(16, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	hu, _ := uniform.Entropy()
	hs, _ := skewed.Entropy()
	if hs >= hu {
		t.Fatalf("skewed entropy %v >= uniform %v", hs, hu)
	}
	if _, err := SyntheticOligopoly(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := SyntheticOligopoly(5, -1); err == nil {
		t.Fatal("negative exponent accepted")
	}
	if _, err := SyntheticOligopoly(5, math.NaN()); err == nil {
		t.Fatal("NaN exponent accepted")
	}
}

// Property: larger Zipf exponents never increase entropy (more oligopoly,
// less diversity) and min-faults-to-majority never increases either.
func TestPropOligopolyMonotone(t *testing.T) {
	f := func(rawN uint8, rawS uint8) bool {
		n := 2 + int(rawN)%30
		s1 := float64(rawS%20) / 10.0
		s2 := s1 + 0.5
		d1, err1 := SyntheticOligopoly(n, s1)
		d2, err2 := SyntheticOligopoly(n, s2)
		if err1 != nil || err2 != nil {
			return false
		}
		h1, _ := d1.Entropy()
		h2, _ := d2.Entropy()
		f1, _ := d1.MinFaultsToExceed(0.5)
		f2, _ := d2.MinFaultsToExceed(0.5)
		return h2 <= h1+1e-9 && f2 <= f1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The snapshot, as a diversity report, matches the paper's Example 1 story:
// entropy < 3, effective configurations < 8.
func TestSnapshotReport(t *testing.T) {
	r, err := diversity.ReportForDistribution(SnapshotDistribution())
	if err != nil {
		t.Fatal(err)
	}
	if r.Support != 17 {
		t.Fatalf("support = %d", r.Support)
	}
	if r.EffectiveConfigurations >= 8 {
		t.Fatalf("effective configurations = %v, want < 8 (worse than BFT-8)", r.EffectiveConfigurations)
	}
	if r.MaxShare < 0.34 {
		t.Fatalf("max share = %v, want >= 0.34 (Foundry)", r.MaxShare)
	}
}
