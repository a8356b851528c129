package core

import (
	"math"
	"testing"

	"repro/internal/registry"
	"repro/internal/vuln"
)

// TestSubstrateTable: a consensus family is a name and a tolerance. Every
// instance carries the pair the paper gives it, WithSubstrate takes f only
// from (0,1), and Safe is f ≥ Σ f_t^i on the deduplicated fraction.
func TestSubstrateTable(t *testing.T) {
	committee := func(seats int) Substrate {
		s, err := Committee(seats)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, c := range []struct {
		got  Substrate
		name string
		tol  float64
	}{
		{BFT, "bft", 1.0 / 3.0},
		{Nakamoto, "nakamoto", 1.0 / 2.0},
		{committee(4), "committee(4)", 1.0 / 4.0},
		{committee(7), "committee(7)", 2.0 / 7.0},
		{committee(16), "committee(16)", 5.0 / 16.0},
		{committee(100), "committee(100)", 33.0 / 100.0},
		{Threshold(0.25), "custom(f=0.25)", 0.25},
		{Threshold(1.0 / 3.0), "custom(f=0.3333)", 1.0 / 3.0},
	} {
		if c.got.Name != c.name || c.got.Tolerance != c.tol {
			t.Errorf("substrate %+v, want %s at %v", c.got, c.name, c.tol)
		}
		mon, err := NewMonitor(registry.New(nil, nil), WithSubstrate(c.got))
		if err != nil {
			t.Errorf("%s rejected: %v", c.name, err)
			continue
		}
		if mon.Substrate() != c.got || mon.Threshold() != c.tol {
			t.Errorf("monitor holds %+v at %v, want %+v", mon.Substrate(), mon.Threshold(), c.got)
		}
		// Equality is safe; the next float up is not.
		at, past := vuln.Injection{TotalFraction: c.tol}, vuln.Injection{TotalFraction: math.Nextafter(c.tol, 1)}
		if !c.got.Safe(at) || c.got.Safe(past) {
			t.Errorf("%s: Safe(Σf = f) = %t, Safe(Σf just past f) = %t; want true, false", c.name, c.got.Safe(at), c.got.Safe(past))
		}
	}
	// Safe reads the deduplicated fraction, not the paper-literal sum that
	// counts a replica once per vulnerability.
	if !BFT.Safe(vuln.Injection{TotalFraction: 0.3, SumFraction: 0.6}) {
		t.Error("BFT unsafe at Σf = 0.3 because the double-counted sum is 0.6")
	}

	if s, err := Committee(3); err == nil {
		t.Errorf("Committee(3) = %+v, want an error", s)
	}
	for _, f := range []float64{0, 1, -0.1, 1.5, math.NaN()} {
		if _, err := NewMonitor(registry.New(nil, nil), WithSubstrate(Threshold(f))); err == nil {
			t.Errorf("tolerance %v accepted", f)
		}
	}
	if _, err := NewMonitor(registry.New(nil, nil), WithSubstrate(Substrate{})); err == nil {
		t.Error("zero Substrate accepted")
	}
}
