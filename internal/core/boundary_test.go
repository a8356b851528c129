package core

import (
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/registry"
	"repro/internal/vuln"
)

// boundaryFleet is a fleet of one-decimal powers (in tenths) and the
// replicas a vulnerability exposes; the others run one of two products.
type boundaryFleet struct {
	tenths  []int
	exposed []bool
	other   []int
}

// boundaryFleets draws random fleets of 3–7 replicas with one-decimal
// powers and a random exposed subset (seed 1), and keeps the first 3 702
// whose exposed share is exactly 1/3, Sec. II-C's boundary.
func boundaryFleets() []boundaryFleet {
	rng := rand.New(rand.NewSource(1))
	var out []boundaryFleet
	for len(out) < 3702 {
		n := 3 + rng.Intn(5)
		f := boundaryFleet{tenths: make([]int, n), exposed: make([]bool, n), other: make([]int, n)}
		exposed, total := 0, 0
		for i := range f.tenths {
			f.tenths[i], f.exposed[i], f.other[i] = 1+rng.Intn(9), rng.Intn(2) == 0, rng.Intn(2)
			total += f.tenths[i]
			if f.exposed[i] {
				exposed += f.tenths[i]
			}
		}
		if exposed > 0 && 3*exposed == total {
			out = append(out, f)
		}
	}
	return out
}

// exactFaults is the fewest of shares, largest first, whose sum is strictly
// more than frac of total, in math/big.Rat; -1 when none is.
func exactFaults(shares []*big.Rat, total, frac *big.Rat) int {
	sorted := slices.Clone(shares)
	slices.SortFunc(sorted, func(a, b *big.Rat) int { return b.Cmp(a) })
	limit := new(big.Rat).Mul(frac, total)
	cum := new(big.Rat)
	for i, s := range sorted {
		if cum.Add(cum, s).Cmp(limit) > 0 {
			return i + 1
		}
	}
	return -1
}

// TestSec2CBoundaryIsExact: a fleet whose exposed share is exactly f = 1/3
// is safe (Sec. II-C: f ≥ Σ f_t^i), and one unit of 1e-9 more on an exposed
// replica is not. The monitor (registry snapshot + grouped injector), the
// flat vuln.Inject and 3·c ≤ T on the shared power units must all give the
// verdict math/big.Rat gives on the decimal powers, whatever the order the
// powers are summed in. The same assessment's report must agree with
// math/big.Rat too: its fault counts to 1/3 and 1/2 over the per-
// configuration sums, to 1/2 over the replicas, and whether the largest
// configuration holds more than 1/3.
func TestSec2CBoundaryIsExact(t *testing.T) {
	cat := vuln.NewCatalog()
	if err := cat.Add(vuln.Vulnerability{
		ID: "CVE-1", Class: config.ClassOperatingSystem, Product: "hit", Version: "1",
		PatchAt: time.Hour, Severity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// One more fleet on four configurations: {0.2, 0.2, 0.2, 0.3} with the
	// 0.3 exposed, whose largest configuration holds exactly 1/3.
	fleets := append(boundaryFleets(), boundaryFleet{
		tenths: []int{2, 2, 2, 3}, exposed: []bool{false, false, false, true}, other: []int{0, 1, 2, 0},
	})
	for n, f := range fleets {
		first := slices.Index(f.exposed, true)
		for _, past := range []bool{false, true} {
			powers := make([]float64, len(f.tenths))
			for i, d := range f.tenths {
				powers[i] = float64(d) / 10
			}
			if past {
				powers[first] += 1e-9
			}
			reg := registry.New(nil)
			var reps []vuln.Replica
			exact, held := new(big.Rat), new(big.Rat)
			var replicas []*big.Rat
			configs := map[string]*big.Rat{}
			var c, total uint64
			for i, p := range powers {
				os := "hit"
				if !f.exposed[i] {
					os = fmt.Sprintf("miss-%d", f.other[i])
				}
				id := fmt.Sprintf("r%d", i)
				if err := reg.JoinDeclared(registry.ReplicaID(id), osCfg(os), p, 0); err != nil {
					t.Fatal(err)
				}
				reps = append(reps, vuln.Replica{Name: id, Config: osCfg(os), Power: p})
				r, ok := new(big.Rat).SetString(strconv.FormatFloat(p, 'f', -1, 64))
				if !ok {
					t.Fatalf("power %v", p)
				}
				u, err := vuln.PowerUnits(p)
				if err != nil {
					t.Fatal(err)
				}
				exact.Add(exact, r)
				replicas = append(replicas, r)
				if configs[os] == nil {
					configs[os] = new(big.Rat)
				}
				configs[os].Add(configs[os], r)
				total += u
				if f.exposed[i] {
					held.Add(held, r)
					c += u
				}
			}
			want := new(big.Rat).Mul(big.NewRat(3, 1), held).Cmp(exact) <= 0
			if want == past {
				t.Fatalf("fleet %d %v: exact arithmetic says safe=%t one unit past=%t", n, powers, want, past)
			}
			mon, err := NewMonitor(reg, WithCatalog(cat))
			if err != nil {
				t.Fatal(err)
			}
			a, err := mon.Assess(0)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := vuln.Inject(cat, reps, 0)
			if err != nil {
				t.Fatal(err)
			}
			if a.Safe != want || BFT.Safe(flat) != want || (3*c <= total) != want {
				t.Fatalf("fleet %d %v (exposed %v): monitor safe=%t at %v, flat safe=%t at %v, 3c ≤ T %t; exact says %t",
					n, powers, f.exposed, a.Safe, a.Injection.TotalFraction, BFT.Safe(flat), flat.TotalFraction, 3*c <= total, want)
			}
			if math.Float64bits(a.Injection.TotalFraction) != math.Float64bits(flat.TotalFraction) {
				t.Fatalf("fleet %d %v: monitor Σf %v, flat %v", n, powers, a.Injection.TotalFraction, flat.TotalFraction)
			}
			sums := slices.Collect(maps.Values(configs))
			third, half := big.NewRat(1, 3), big.NewRat(1, 2)
			want3, want2, wantOp := exactFaults(sums, exact, third), exactFaults(sums, exact, half), exactFaults(replicas, exact, half)
			if r := a.Diversity; r.MinConfigFaultsToThird != want3 || r.MinConfigFaultsToHalf != want2 ||
				r.MinOperatorFaultsToHalf != wantOp || (r.MaxShare > 1.0/3.0) != (want3 == 1) {
				t.Fatalf("fleet %d %v (exposed %v): report faults to 1/3 %d, 1/2 %d, operator 1/2 %d, max share %v; exact says %d, %d, %d",
					n, powers, f.exposed, r.MinConfigFaultsToThird, r.MinConfigFaultsToHalf, r.MinOperatorFaultsToHalf, r.MaxShare, want3, want2, wantOp)
			}
		}
	}
}

// TestSafeExactnessDomain: Substrate.Safe is exact for BFT up to a total of
// 2^53 units, the largest at which compromised and total units convert to
// float64 exactly, and past 2^55 a share one unit above 1/3 can read safe.
func TestSafeExactnessDomain(t *testing.T) {
	verdict := func(c, total uint64) bool {
		return BFT.Safe(vuln.Injection{TotalFraction: vuln.UnitFraction(c, total)})
	}
	for _, total := range []uint64{1 << 53, 1<<53 - 1, 1<<53 - 2, 3 << 51, 3<<51 + 1} {
		below, above := total/3, (total+2)/3 // ⌊T/3⌋ and ⌈T/3⌉
		if 3*above == total {
			above++
		}
		if !verdict(below, total) || verdict(above, total) {
			t.Errorf("T = %d: Safe(%d) = %t, Safe(%d) = %t; want true, false", total, below, verdict(below, total), above, verdict(above, total))
		}
	}
	// Past the domain: c/T = (2^60+2)/(3·2^60+3) is above 1/3, but both
	// conversions round to a quotient of exactly 1/3.
	if c, total := uint64(1<<60+2), uint64(3<<60+3); !verdict(c, total) {
		t.Errorf("T = %d: Safe(%d) = false; the documented limit no longer holds", total, c)
	}
}
