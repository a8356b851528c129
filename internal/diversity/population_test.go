package diversity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPopulationValidation(t *testing.T) {
	if _, err := NewPopulation([]Member{{Label: "", Power: 1}}); err == nil {
		t.Fatal("empty label accepted")
	}
	if _, err := NewPopulation([]Member{{Label: "a", Power: -1}}); err == nil {
		t.Fatal("negative power accepted")
	}
	if _, err := NewPopulation([]Member{{Label: "a", Power: math.NaN()}}); err == nil {
		t.Fatal("NaN power accepted")
	}
	p, err := NewPopulation(nil)
	if err != nil || p.Size() != 0 {
		t.Fatalf("empty population: %v, size %d", err, p.Size())
	}
}

func TestUniformPopulation(t *testing.T) {
	labels := []string{"a", "b", "c"}
	p, err := UniformPopulation(9, labels)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 9 {
		t.Fatalf("size = %d", p.Size())
	}
	counts := p.AbundanceCounts()
	for _, l := range labels {
		if counts[l] != 3 {
			t.Fatalf("abundance of %s = %d, want 3", l, counts[l])
		}
	}
	omega, ok := p.Omega()
	if !ok || omega != 3 {
		t.Fatalf("Omega = %d,%v want 3,true", omega, ok)
	}
	if _, err := UniformPopulation(0, labels); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := UniformPopulation(3, nil); err == nil {
		t.Fatal("empty labels accepted")
	}
}

func TestAddValidation(t *testing.T) {
	p, _ := NewPopulation(nil)
	if err := p.Add(Member{Label: "", Power: 1}); err == nil {
		t.Fatal("empty label accepted")
	}
	if err := p.Add(Member{Label: "a", Power: math.Inf(1)}); err == nil {
		t.Fatal("inf power accepted")
	}
	if err := p.Add(Member{Label: "a", Power: 2}); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1 {
		t.Fatalf("size = %d", p.Size())
	}
}

func TestPowerDistributionAggregates(t *testing.T) {
	p, _ := NewPopulation([]Member{
		{Label: "a", Power: 1}, {Label: "a", Power: 2}, {Label: "b", Power: 3},
	})
	d := p.PowerDistribution()
	if d.Weight("a") != 3 || d.Weight("b") != 3 {
		t.Fatalf("weights a=%v b=%v", d.Weight("a"), d.Weight("b"))
	}
	if !d.IsKappaOptimal(2) {
		t.Fatal("aggregated distribution should be κ=2 optimal")
	}
}

func TestRelativeAbundance(t *testing.T) {
	p, _ := NewPopulation([]Member{
		{Label: "a", Power: 100}, {Label: "b", Power: 1}, {Label: "b", Power: 1},
	})
	ra := p.AbundanceCounts()
	// Relative abundance counts members, ignoring power.
	if len(ra) != 2 || ra["a"] != 1 || ra["b"] != 2 {
		t.Fatalf("relative abundance %v", ra)
	}
}

func TestOmegaNonUniform(t *testing.T) {
	p, _ := NewPopulation([]Member{
		{Label: "a", Power: 1}, {Label: "a", Power: 1}, {Label: "b", Power: 1},
	})
	if _, ok := p.Omega(); ok {
		t.Fatal("non-uniform abundance reported ω")
	}
	empty, _ := NewPopulation(nil)
	if _, ok := empty.Omega(); ok {
		t.Fatal("empty population reported ω")
	}
}

func TestKappaOmegaOptimal(t *testing.T) {
	// Definition 2: κ configurations, ω members each, uniform power.
	labels := []string{"c0", "c1", "c2", "c3"}
	p, _ := UniformPopulation(12, labels)
	if !p.IsKappaOmegaOptimal(4, 3) {
		t.Fatal("(4,3)-optimal population not recognized")
	}
	if p.IsKappaOmegaOptimal(4, 2) || p.IsKappaOmegaOptimal(3, 3) {
		t.Fatal("wrong (κ,ω) accepted")
	}
	// Uniform abundance but skewed power: not optimal.
	skew, _ := NewPopulation([]Member{
		{Label: "a", Power: 10}, {Label: "b", Power: 1},
	})
	if skew.IsKappaOmegaOptimal(2, 1) {
		t.Fatal("power-skewed population reported optimal")
	}
}

func TestMinOperatorFaults(t *testing.T) {
	// 4 configs × 3 members, unit power: majority needs 7 of 12 members.
	p, _ := UniformPopulation(12, []string{"a", "b", "c", "d"})
	n, err := p.MinOperatorFaultsToExceed(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("operator faults = %d, want 7", n)
	}
	// Config-level faults: only 3 of 4 configs needed.
	cf, _ := p.PowerDistribution().MinFaultsToExceed(0.5)
	if cf != 3 {
		t.Fatalf("config faults = %d, want 3", cf)
	}
	empty, _ := NewPopulation(nil)
	if _, err := empty.MinOperatorFaultsToExceed(0.5); err != ErrNoWeight {
		t.Fatalf("err = %v, want ErrNoWeight", err)
	}
	zero, _ := NewPopulation([]Member{{Label: "a", Power: 0}})
	if _, err := zero.MinOperatorFaultsToExceed(0.5); err != ErrNoWeight {
		t.Fatalf("zero-power err = %v, want ErrNoWeight", err)
	}
}

func TestMembersCopy(t *testing.T) {
	p, _ := NewPopulation([]Member{{Label: "a", Power: 1}})
	ms := p.Members()
	ms[0].Label = "mutated"
	if p.Members()[0].Label != "a" {
		t.Fatal("Members exposed internal slice")
	}
}

func TestReportForPopulation(t *testing.T) {
	p, _ := UniformPopulation(16, []string{"a", "b", "c", "d"})
	r, err := ReportForPopulation(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Support != 4 || r.Members != 16 || r.Kappa != 4 || r.Omega != 4 {
		t.Fatalf("report = %+v", r)
	}
	if !almostEqual(r.Entropy, 2, 1e-12) {
		t.Fatalf("entropy = %v, want 2", r.Entropy)
	}
	if !almostEqual(r.EffectiveConfigurations, 4, 1e-9) {
		t.Fatalf("effective = %v", r.EffectiveConfigurations)
	}
	if r.MinConfigFaultsToHalf != 3 {
		t.Fatalf("config faults = %d, want 3", r.MinConfigFaultsToHalf)
	}
	if r.MinOperatorFaultsToHalf != 9 {
		t.Fatalf("operator faults = %d, want 9 (9/16 > 1/2)", r.MinOperatorFaultsToHalf)
	}
	if !almostEqual(r.MaxShare, 0.25, 1e-12) {
		t.Fatalf("max share = %v", r.MaxShare)
	}
}

func TestReportForDistributionErrors(t *testing.T) {
	var empty Distribution
	if _, err := ReportForDistribution(empty); err == nil {
		t.Fatal("empty distribution report succeeded")
	}
}

// Property (Definition 2 / Prop. 3): for κ-optimal populations, operator
// resilience strictly increases with ω while config-level resilience stays
// constant.
func TestPropAbundanceImprovesOperatorResilience(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		kappa := 2 + rng.Intn(10)
		omega := 1 + rng.Intn(8)
		labels := make([]string, kappa)
		for i := range labels {
			labels[i] = string(rune('a' + i))
		}
		p1, err1 := UniformPopulation(kappa*omega, labels)
		p2, err2 := UniformPopulation(kappa*(omega+1), labels)
		if err1 != nil || err2 != nil {
			return false
		}
		op1, _ := p1.MinOperatorFaultsToExceed(0.5)
		op2, _ := p2.MinOperatorFaultsToExceed(0.5)
		cf1, _ := p1.PowerDistribution().MinFaultsToExceed(0.5)
		cf2, _ := p2.PowerDistribution().MinFaultsToExceed(0.5)
		return op2 > op1 && cf1 == cf2
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: power distribution total equals sum of member powers, and
// abundance counts sum to population size.
func TestPropPopulationConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := func() bool {
		n := rng.Intn(50)
		members := make([]Member, n)
		var total float64
		for i := range members {
			members[i] = Member{
				Label: string(rune('a' + rng.Intn(5))),
				Power: float64(rng.Intn(100)),
			}
			total += members[i].Power
		}
		p, err := NewPopulation(members)
		if err != nil {
			return false
		}
		if !almostEqual(p.PowerDistribution().Total(), total, 1e-9) {
			return false
		}
		sum := 0
		for _, c := range p.AbundanceCounts() {
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
