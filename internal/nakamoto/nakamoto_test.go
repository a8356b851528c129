package nakamoto

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func pools(shares ...float64) []Pool {
	out := make([]Pool, len(shares))
	for i, s := range shares {
		out[i] = Pool{Name: string(rune('a' + i)), Power: s}
	}
	return out
}

func TestSimulateValidation(t *testing.T) {
	good := Config{Pools: pools(1, 1), BlockInterval: time.Minute, Propagation: time.Second}
	if _, err := Simulate(Config{BlockInterval: time.Minute}, 10); err == nil {
		t.Fatal("no pools accepted")
	}
	if _, err := Simulate(good, 0); err == nil {
		t.Fatal("zero blocks accepted")
	}
	bad := good
	bad.BlockInterval = 0
	if _, err := Simulate(bad, 10); err == nil {
		t.Fatal("zero interval accepted")
	}
	neg := good
	neg.Pools = pools(-1, 2)
	if _, err := Simulate(neg, 10); err == nil {
		t.Fatal("negative power accepted")
	}
	zero := good
	zero.Pools = pools(0, 0)
	if _, err := Simulate(zero, 10); err == nil {
		t.Fatal("zero total power accepted")
	}
}

func TestSimulateConservation(t *testing.T) {
	res, err := Simulate(Config{
		Pools:         pools(3, 2, 1),
		BlockInterval: 10 * time.Minute,
		Propagation:   5 * time.Second,
		Seed:          1,
	}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBlocks != 300 {
		t.Fatalf("total = %d", res.TotalBlocks)
	}
	if res.MainChainLength+res.StaleBlocks != res.TotalBlocks {
		t.Fatalf("conservation: %d + %d != %d", res.MainChainLength, res.StaleBlocks, res.TotalBlocks)
	}
	var onChain int
	for _, n := range res.BlocksByPool {
		onChain += n
	}
	if onChain != res.MainChainLength {
		t.Fatalf("per-pool sum %d != main chain %d", onChain, res.MainChainLength)
	}
}

func TestSimulateRevenueProportionalToPower(t *testing.T) {
	res, err := Simulate(Config{
		Pools:         pools(6, 3, 1),
		BlockInterval: 10 * time.Minute,
		Propagation:   time.Second, // fast propagation: few forks
		Seed:          2,
	}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	frac := func(name string) float64 {
		return float64(res.BlocksByPool[name]) / float64(res.MainChainLength)
	}
	if a := frac("a"); math.Abs(a-0.6) > 0.05 {
		t.Fatalf("pool a fraction = %v, want ≈0.6", a)
	}
	if c := frac("c"); math.Abs(c-0.1) > 0.04 {
		t.Fatalf("pool c fraction = %v, want ≈0.1", c)
	}
}

func TestSimulateForkRateGrowsWithPropagation(t *testing.T) {
	run := func(prop time.Duration) float64 {
		res, err := Simulate(Config{
			Pools:         pools(1, 1, 1, 1, 1, 1, 1, 1),
			BlockInterval: time.Minute,
			Propagation:   prop,
			Seed:          3,
		}, 1500)
		if err != nil {
			t.Fatal(err)
		}
		return res.ForkRate
	}
	fast := run(100 * time.Millisecond)
	slow := run(20 * time.Second) // propagation ~ 1/3 of block interval
	if slow <= fast {
		t.Fatalf("fork rate: fast-prop %v, slow-prop %v; want growth", fast, slow)
	}
	if slow < 0.05 {
		t.Fatalf("slow-propagation fork rate %v implausibly low", slow)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := Config{Pools: pools(2, 1), BlockInterval: time.Minute, Propagation: time.Second, Seed: 7}
	a, err := Simulate(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(cfg, 200)
	if a.MainChainLength != b.MainChainLength || a.StaleBlocks != b.StaleBlocks {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestCompromisedShare(t *testing.T) {
	// The paper's snapshot shape: top-2 pools exceed half the power.
	ps := pools(34.239, 19.981, 12.997, 11.348, 8.826, 2.619, 2.037, 1.649,
		1.358, 1.261, 0.78, 0.68, 0.68, 0.39, 0.10, 0.10, 0.10)
	q2, err := CompromisedShare(ps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q2 <= 0.5 {
		t.Fatalf("top-2 share = %v, want > 0.5", q2)
	}
	q0, _ := CompromisedShare(ps, 0)
	if q0 != 0 {
		t.Fatalf("k=0 share = %v", q0)
	}
	qAll, _ := CompromisedShare(ps, len(ps))
	if math.Abs(qAll-1) > 1e-9 {
		t.Fatalf("k=all share = %v", qAll)
	}
	if _, err := CompromisedShare(ps, -1); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := CompromisedShare(ps, len(ps)+1); err == nil {
		t.Fatal("k beyond pools accepted")
	}
	if _, err := CompromisedShare(pools(0, 0), 1); err == nil {
		t.Fatal("zero power accepted")
	}
}

func TestDoubleSpendProbabilityKnownValues(t *testing.T) {
	// Nakamoto's paper, section 11 table: q=0.1, z=5 -> P ≈ 0.0009137.
	p, err := DoubleSpendProbability(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.0009137) > 1e-6 {
		t.Fatalf("P(q=0.1,z=5) = %v, want ≈0.0009137", p)
	}
	// q=0.3, z=5 -> P ≈ 0.1773523 (same table).
	p, _ = DoubleSpendProbability(0.3, 5)
	if math.Abs(p-0.1773523) > 1e-6 {
		t.Fatalf("P(q=0.3,z=5) = %v, want ≈0.1773523", p)
	}
	// q=0.3, z=10 -> P ≈ 0.0416605.
	p, _ = DoubleSpendProbability(0.3, 10)
	if math.Abs(p-0.0416605) > 1e-6 {
		t.Fatalf("P(q=0.3,z=10) = %v, want ≈0.0416605", p)
	}
}

func TestDoubleSpendProbabilityEdges(t *testing.T) {
	if p, _ := DoubleSpendProbability(0, 6); p != 0 {
		t.Fatalf("q=0 -> %v", p)
	}
	if p, _ := DoubleSpendProbability(0.5, 6); p != 1 {
		t.Fatalf("q=0.5 -> %v (majority always wins)", p)
	}
	if p, _ := DoubleSpendProbability(0.7, 3); p != 1 {
		t.Fatalf("q=0.7 -> %v", p)
	}
	if p, _ := DoubleSpendProbability(0.2, 0); p != 1 {
		t.Fatalf("z=0 -> %v (no confirmations, attacker starts even)", p)
	}
	if _, err := DoubleSpendProbability(-0.1, 1); err == nil {
		t.Fatal("negative q accepted")
	}
	if _, err := DoubleSpendProbability(1.1, 1); err == nil {
		t.Fatal("q>1 accepted")
	}
	if _, err := DoubleSpendProbability(0.2, -1); err == nil {
		t.Fatal("negative z accepted")
	}
}

func TestDoubleSpendProbabilityMonotone(t *testing.T) {
	for z := 1; z <= 10; z++ {
		pPrev := -1.0
		for _, q := range []float64{0.05, 0.1, 0.2, 0.3, 0.4} {
			p, err := DoubleSpendProbability(q, z)
			if err != nil {
				t.Fatal(err)
			}
			if p <= pPrev {
				t.Fatalf("P not increasing in q at z=%d q=%v", z, q)
			}
			pPrev = p
		}
	}
	// Decreasing in z.
	for _, q := range []float64{0.1, 0.25, 0.4} {
		pPrev := 2.0
		for z := 0; z <= 8; z++ {
			p, _ := DoubleSpendProbability(q, z)
			if p >= pPrev {
				t.Fatalf("P not decreasing in z at q=%v z=%d", q, z)
			}
			pPrev = p
		}
	}
}

func TestSimulateDoubleSpendMatchesExactAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		q float64
		z int
	}{{0.1, 3}, {0.2, 4}, {0.3, 6}} {
		sim, err := SimulateDoubleSpend(rng, tc.q, tc.z, 60000)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := DoubleSpendProbabilityExact(tc.q, tc.z)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sim-exact) > 0.01 {
			t.Fatalf("q=%v z=%d: sim %v vs exact %v", tc.q, tc.z, sim, exact)
		}
	}
}

func TestExactAndPoissonFormsAgreeRoughly(t *testing.T) {
	// Nakamoto's Poisson form is an approximation of the exact NB race;
	// they should track each other within a few percentage points.
	for _, q := range []float64{0.05, 0.1, 0.2, 0.3} {
		for _, z := range []int{1, 3, 6, 10} {
			approx, _ := DoubleSpendProbability(q, z)
			exact, err := DoubleSpendProbabilityExact(q, z)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(approx-exact) > 0.05 {
				t.Fatalf("q=%v z=%d: poisson %v vs exact %v diverge", q, z, approx, exact)
			}
		}
	}
	// Edges mirror the approximate form.
	if p, _ := DoubleSpendProbabilityExact(0, 6); p != 0 {
		t.Fatalf("exact q=0 -> %v", p)
	}
	if p, _ := DoubleSpendProbabilityExact(0.6, 6); p != 1 {
		t.Fatalf("exact q=0.6 -> %v", p)
	}
	if _, err := DoubleSpendProbabilityExact(-0.1, 1); err == nil {
		t.Fatal("negative q accepted")
	}
	if _, err := DoubleSpendProbabilityExact(0.1, -1); err == nil {
		t.Fatal("negative z accepted")
	}
}

func TestSimulateDoubleSpendValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := SimulateDoubleSpend(nil, 0.1, 1, 10); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := SimulateDoubleSpend(rng, -1, 1, 10); err == nil {
		t.Fatal("bad q accepted")
	}
	if _, err := SimulateDoubleSpend(rng, 0.1, -1, 10); err == nil {
		t.Fatal("bad z accepted")
	}
	if _, err := SimulateDoubleSpend(rng, 0.1, 1, 0); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestDoubleSpendTrialFullHashShareTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// q = 1 previously spun forever in phase 1 (honest never mines).
	if !DoubleSpendTrial(rng, 1, 6) {
		t.Fatal("attacker with the whole network lost")
	}
	sim, err := SimulateDoubleSpend(rng, 1, 6, 100)
	if err != nil || sim != 1 {
		t.Fatalf("SimulateDoubleSpend(q=1) = %v, %v; want 1, nil", sim, err)
	}
}
