package vuln

import (
	"math"
	"math/rand"
	"testing"
)

func TestPowerUnits(t *testing.T) {
	for _, c := range []struct {
		w    float64
		want uint64
		ok   bool
	}{
		{0, 0, true},
		{1, 1e9, true},
		{0.1, 1e8, true},
		{6e-10, 1, true},  // rounds up to one unit
		{5e-10, 1, true},  // a half rounds away from zero
		{4e-10, 0, false}, // positive, but 0 units
		{6e9, 6e18, true}, // below the ceiling
		{6.2e9, 0, false}, // past it
		{-1, 0, false},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
	} {
		got, err := PowerUnits(c.w)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("PowerUnits(%v) = %d, %v; want %d, ok=%t", c.w, got, err, c.want, c.ok)
		}
	}
}

// TestPowerUnitsRoundTrip: a power with at most nine decimals converts to
// exactly its decimal value, and back to the float64 it came from.
func TestPowerUnitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		u := uint64(rng.Int63n(1 << 50))
		w := UnitsPower(u)
		if got, err := PowerUnits(w); err != nil || got != u {
			t.Fatalf("PowerUnits(UnitsPower(%d)) = %d, %v", u, got, err)
		}
	}
}

func TestWeighAndAddUnits(t *testing.T) {
	if u, err := WeighUnits(7, 1); err != nil || u != 7 {
		t.Errorf("WeighUnits(7, 1) = %d, %v", u, err)
	}
	if u, err := WeighUnits(3e9, 0.5); err != nil || u != 1.5e9 {
		t.Errorf("WeighUnits(3e9, 0.5) = %d, %v", u, err)
	}
	if _, err := WeighUnits(MaxPowerUnits, 1.5); err == nil {
		t.Error("Weigh past the ceiling accepted")
	}
	if total, ok := AddUnits(MaxPowerUnits-6, 2, 3); !ok || total != MaxPowerUnits {
		t.Errorf("Add to the ceiling = %d, %t", total, ok)
	}
	if _, ok := AddUnits(MaxPowerUnits-5, 2, 3); ok {
		t.Error("Add one unit past the ceiling accepted")
	}
	if _, ok := AddUnits(0, 1<<40, 1<<40); ok {
		t.Error("Add whose product overflows a uint64 accepted")
	}
	if f := UnitFraction(1, 3); f != 1.0/3.0 {
		t.Errorf("UnitFraction(1, 3) = %v", f)
	}
	if f := UnitFraction(1, 0); f != 0 {
		t.Errorf("UnitFraction(1, 0) = %v", f)
	}
}
