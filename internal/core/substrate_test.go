package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/config"
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
		mon, err := NewMonitor(registry.New(nil), WithSubstrate(c.got))
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
	// Verdicts on injected fleets: one vulnerability compromises the
	// replicas listed under exposed.
	for _, c := range []struct {
		exposed, rest []float64
		safe          bool
	}{
		{[]float64{40, 30}, []float64{20, 10}, false},                  // one fault takes 70 % of the power
		{[]float64{0.8}, []float64{0.6, 0.4, 0.3, 0.3}, true},          // exactly 1/3 on one-decimal powers
		{[]float64{0.800000001}, []float64{0.6, 0.4, 0.3, 0.3}, false}, // one unit of 1e-9 past it
	} {
		inj := injectFleet(t, c.exposed, c.rest)
		if got := BFT.Safe(inj); got != c.safe {
			t.Errorf("exposed %v of %v: Safe = %t at Σf = %v, want %t", c.exposed, c.rest, got, inj.TotalFraction, c.safe)
		}
	}

	if s, err := Committee(3); err == nil {
		t.Errorf("Committee(3) = %+v, want an error", s)
	}
	for _, f := range []float64{0, 1, -0.1, 1.5, math.NaN()} {
		if _, err := NewMonitor(registry.New(nil), WithSubstrate(Threshold(f))); err == nil {
			t.Errorf("tolerance %v accepted", f)
		}
	}
	if _, err := NewMonitor(registry.New(nil), WithSubstrate(Substrate{})); err == nil {
		t.Error("zero Substrate accepted")
	}
}

// injectFleet injects one severity-1 vulnerability into a fleet whose
// replicas with the exposed powers run the affected product and the rest
// another one.
func injectFleet(t *testing.T, exposed, rest []float64) vuln.Injection {
	t.Helper()
	cat := vuln.NewCatalog()
	if err := cat.Add(vuln.Vulnerability{
		ID: "CVE-1", Class: config.ClassOperatingSystem, Product: "hit", Version: "1",
		PatchAt: time.Hour, Severity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	var reps []vuln.Replica
	for i, p := range append(append([]float64(nil), exposed...), rest...) {
		os := "hit"
		if i >= len(exposed) {
			os = "miss"
		}
		reps = append(reps, vuln.Replica{Name: fmt.Sprintf("r%d", i), Config: osCfg(os), Power: p})
	}
	inj, err := vuln.Inject(cat, reps, 0)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}
