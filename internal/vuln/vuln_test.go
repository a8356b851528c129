package vuln

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/config"
)

func cfgWith(_ *testing.T, class config.Class, name, version string) config.Configuration {
	return config.MustNew(config.Component{Class: class, Name: name, Version: version})
}

func validVuln() Vulnerability {
	return Vulnerability{
		ID:        "CVE-1",
		Class:     config.ClassCryptoLibrary,
		Product:   "openssl",
		Version:   "3.0.8",
		Disclosed: 10 * time.Hour,
		PatchAt:   20 * time.Hour,
		Severity:  1,
	}
}

func TestValidate(t *testing.T) {
	if err := validVuln().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Vulnerability)
	}{
		{"empty id", func(v *Vulnerability) { v.ID = "" }},
		{"bad class", func(v *Vulnerability) { v.Class = config.Class(99) }},
		{"empty product", func(v *Vulnerability) { v.Product = "" }},
		{"patch before disclosure", func(v *Vulnerability) { v.PatchAt = v.Disclosed - 1 }},
		{"severity zero", func(v *Vulnerability) { v.Severity = 0 }},
		{"severity above one", func(v *Vulnerability) { v.Severity = 1.1 }},
	}
	for _, tc := range cases {
		v := validVuln()
		tc.mut(&v)
		if err := v.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestAffectsExactVersion(t *testing.T) {
	v := validVuln()
	if !v.Affects(cfgWith(t, config.ClassCryptoLibrary, "openssl", "3.0.8")) {
		t.Fatal("matching config not affected")
	}
	if v.Affects(cfgWith(t, config.ClassCryptoLibrary, "openssl", "3.0.9")) {
		t.Fatal("patched version affected")
	}
	if v.Affects(cfgWith(t, config.ClassCryptoLibrary, "libsodium", "3.0.8")) {
		t.Fatal("different product affected")
	}
	if v.Affects(cfgWith(t, config.ClassOperatingSystem, "openssl", "3.0.8")) {
		t.Fatal("different class affected")
	}
	if v.Affects(config.MustNew()) {
		t.Fatal("empty config affected")
	}
}

func TestAffectsAllVersions(t *testing.T) {
	v := validVuln()
	v.Version = ""
	if !v.Affects(cfgWith(t, config.ClassCryptoLibrary, "openssl", "1.1.1")) {
		t.Fatal("product-wide vuln missed a version")
	}
	if !v.Affects(cfgWith(t, config.ClassCryptoLibrary, "openssl", "3.0.8")) {
		t.Fatal("product-wide vuln missed current version")
	}
}

func TestWindowOpenAt(t *testing.T) {
	v := validVuln() // disclosed 10h, patch 20h
	lat := 5 * time.Hour
	cases := []struct {
		t    time.Duration
		want bool
	}{
		{9 * time.Hour, false},  // pre-disclosure
		{10 * time.Hour, true},  // disclosure instant
		{20 * time.Hour, true},  // patch shipped but not applied
		{24 * time.Hour, true},  // still inside patch latency
		{25 * time.Hour, false}, // patched
	}
	for _, c := range cases {
		if got := v.WindowOpenAt(c.t, lat); got != c.want {
			t.Errorf("WindowOpenAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestCatalogAddDuplicate(t *testing.T) {
	c := NewCatalog()
	if err := c.Add(validVuln()); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(validVuln()); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := c.Add(Vulnerability{}); err == nil {
		t.Fatal("invalid vuln accepted")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if _, ok := c.vulns["CVE-1"]; !ok {
		t.Fatal("added vuln missing")
	}
	if _, ok := c.vulns["CVE-none"]; ok {
		t.Fatal("catalog holds a vuln never added")
	}
}

func TestCatalogAllSorted(t *testing.T) {
	c := NewCatalog()
	for _, id := range []ID{"CVE-3", "CVE-1", "CVE-2"} {
		v := validVuln()
		v.ID = id
		if err := c.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	all := c.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("All not sorted: %v", all)
		}
	}
}

func TestDisclosedAt(t *testing.T) {
	c := NewCatalog()
	early := validVuln()
	early.ID, early.Disclosed, early.PatchAt = "CVE-early", time.Hour, 2*time.Hour
	late := validVuln()
	late.ID, late.Disclosed, late.PatchAt = "CVE-late", 100*time.Hour, 101*time.Hour
	c.Add(early)
	c.Add(late)
	if got := len(c.DisclosedAt(50 * time.Hour)); got != 1 {
		t.Fatalf("disclosed at 50h = %d, want 1", got)
	}
	if got := len(c.DisclosedAt(200 * time.Hour)); got != 2 {
		t.Fatalf("disclosed at 200h = %d, want 2", got)
	}
}

func fleet(t *testing.T) []Replica {
	mk := func(name, lib, version string, power float64) Replica {
		return Replica{
			Name:         name,
			Config:       cfgWith(t, config.ClassCryptoLibrary, lib, version),
			Power:        power,
			PatchLatency: 24 * time.Hour,
		}
	}
	return []Replica{
		mk("r1", "openssl", "3.0.8", 40),
		mk("r2", "openssl", "3.0.8", 30),
		mk("r3", "libsodium", "1.0.18", 20),
		mk("r4", "golang-crypto", "1.21", 10),
	}
}

func TestInjectSharedFault(t *testing.T) {
	c := NewCatalog()
	c.Add(validVuln()) // hits openssl 3.0.8
	inj, err := Inject(c, fleet(t), 15*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(inj.Faults) != 1 {
		t.Fatalf("faults = %d, want 1", len(inj.Faults))
	}
	f := inj.Faults[0]
	if len(f.Compromised) != 2 {
		t.Fatalf("compromised = %v, want r1,r2", f.Compromised)
	}
	if f.Compromised[0] != "r1" || f.Compromised[1] != "r2" {
		t.Fatalf("compromised order = %v (want power-desc)", f.Compromised)
	}
	if f.PowerFraction != 0.7 {
		t.Fatalf("fraction = %v, want 0.7 (one fault, 70%% of power!)", f.PowerFraction)
	}
}

func TestInjectOutsideWindow(t *testing.T) {
	c := NewCatalog()
	c.Add(validVuln())
	pre, _ := Inject(c, fleet(t), 5*time.Hour)
	if len(pre.Faults) != 0 {
		t.Fatal("fault active before disclosure")
	}
	post, _ := Inject(c, fleet(t), 50*time.Hour) // patch 20h + latency 24h = 44h
	if len(post.Faults) != 0 {
		t.Fatal("fault active after patching")
	}
}

func TestInjectSeverityTakesTopPower(t *testing.T) {
	c := NewCatalog()
	v := validVuln()
	v.Severity = 0.5 // ceil(0.5*2)=1 of the two exposed replicas
	c.Add(v)
	inj, _ := Inject(c, fleet(t), 15*time.Hour)
	f := inj.Faults[0]
	if len(f.Compromised) != 1 || f.Compromised[0] != "r1" {
		t.Fatalf("severity 0.5 compromised %v, want just r1 (highest power)", f.Compromised)
	}
}

// Severity boundary cases for the ⌈s·m⌉ take rule: an exact half over an
// even set must not round up an extra replica, and any positive severity
// must compromise at least one exposed replica.
func TestInjectSeverityCeilBoundaries(t *testing.T) {
	mono := make([]Replica, 4)
	for i := range mono {
		mono[i] = Replica{
			Name:         string(rune('a' + i)),
			Config:       cfgWith(t, config.ClassCryptoLibrary, "openssl", "3.0.8"),
			Power:        float64(10 - i),
			PatchLatency: 24 * time.Hour,
		}
	}
	for _, tc := range []struct {
		severity float64
		want     int
	}{
		{0.5, 2},    // ceil(0.5·4) = 2 exactly, not 3
		{1e-9, 1},   // ceil(4e-9) = 1: a working exploit never takes zero
		{0.25, 1},   // ceil(1) = 1 exactly
		{0.26, 2},   // ceil(1.04) = 2
		{1, 4},      // wormable takes everyone
		{0.7501, 4}, // ceil(3.0004) = 4
	} {
		c := NewCatalog()
		v := validVuln()
		v.Severity = tc.severity
		if err := c.Add(v); err != nil {
			t.Fatal(err)
		}
		inj, err := Inject(c, mono, 15*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if len(inj.Faults) != 1 || len(inj.Faults[0].Compromised) != tc.want {
			t.Fatalf("severity %v compromised %v, want %d replicas",
				tc.severity, inj.Faults, tc.want)
		}
	}
}

func TestInjectDeduplication(t *testing.T) {
	c := NewCatalog()
	a := validVuln()
	c.Add(a)
	b := validVuln()
	b.ID = "CVE-2"
	b.Version = "" // all openssl versions — overlaps with CVE-1 on r1, r2
	c.Add(b)
	inj, _ := Inject(c, fleet(t), 15*time.Hour)
	if len(inj.Faults) != 2 {
		t.Fatalf("faults = %d, want 2", len(inj.Faults))
	}
	// Naive sum double-counts: 0.7 + 0.7; dedup stays at 0.7.
	if inj.TotalFraction != 0.7 {
		t.Fatalf("TotalFraction = %v, want 0.7", inj.TotalFraction)
	}
	if inj.SumFraction <= inj.TotalFraction {
		t.Fatalf("SumFraction %v should exceed dedup %v here", inj.SumFraction, inj.TotalFraction)
	}
}

func TestInjectValidation(t *testing.T) {
	if _, err := Inject(nil, nil, 0); err == nil {
		t.Fatal("nil catalog accepted")
	}
	c := NewCatalog()
	if _, err := Inject(c, []Replica{{Name: "x", Power: -1}}, 0); err == nil {
		t.Fatal("negative power accepted")
	}
	// Empty population: no faults, no division by zero.
	inj, err := Inject(c, nil, 0)
	if err != nil || inj.TotalFraction != 0 {
		t.Fatalf("empty inject: %v %+v", err, inj)
	}
}

func TestWorstWindow(t *testing.T) {
	c := NewCatalog()
	c.Add(validVuln())
	worst, err := WorstWindow(c, fleet(t), 100*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if worst.TotalFraction != 0.7 {
		t.Fatalf("worst fraction = %v, want 0.7", worst.TotalFraction)
	}
	if worst.At < 10*time.Hour || worst.At >= 44*time.Hour {
		t.Fatalf("worst window at %v, outside exploit window", worst.At)
	}
	if _, err := WorstWindow(c, fleet(t), -time.Hour); err == nil {
		t.Fatal("negative horizon accepted")
	}
	if _, err := WorstWindow(nil, fleet(t), time.Hour); err == nil {
		t.Fatal("nil catalog accepted")
	}
}

func TestWorstWindowStepwise(t *testing.T) {
	c := NewCatalog()
	c.Add(validVuln())
	worst, err := WorstWindowStepwise(c, fleet(t), 100*time.Hour, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if worst.TotalFraction != 0.7 {
		t.Fatalf("stepwise worst fraction = %v, want 0.7", worst.TotalFraction)
	}
	if _, err := WorstWindowStepwise(c, fleet(t), time.Hour, 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

// A worst window narrower than the sampling step is invisible to the
// stepwise scan but exact for the event-driven sweep.
func TestWorstWindowExactBeatsCoarseStep(t *testing.T) {
	c := NewCatalog()
	v := validVuln() // disclosed 10h
	v.PatchAt = 11 * time.Hour
	c.Add(v)
	replicas := fleet(t)
	for i := range replicas {
		replicas[i].PatchLatency = 0 // window is exactly [10h, 11h)
	}
	exact, err := WorstWindow(c, replicas, 100*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := WorstWindowStepwise(c, replicas, 100*time.Hour, 4*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if exact.TotalFraction != 0.7 || exact.At != 10*time.Hour {
		t.Fatalf("exact sweep = %+v, want 0.7 at 10h", exact)
	}
	if sampled.TotalFraction != 0 {
		t.Fatalf("4h sampling should miss the 1h window, got %v", sampled.TotalFraction)
	}
}

// Property: a diverse fleet (unique config per replica) bounds every single
// fault to one replica; a monoculture lets one fault take the whole fleet.
func TestPropDiversityBoundsFaults(t *testing.T) {
	f := func(rawN uint8) bool {
		n := 2 + int(rawN)%20
		c := NewCatalog()
		v := Vulnerability{
			ID: "CVE-X", Class: config.ClassOperatingSystem, Product: "os-0",
			Disclosed: 0, PatchAt: time.Hour, Severity: 1,
		}
		if err := c.Add(v); err != nil {
			return false
		}
		diverse := make([]Replica, n)
		mono := make([]Replica, n)
		for i := 0; i < n; i++ {
			diverse[i] = Replica{
				Name:   string(rune('a' + i)),
				Config: config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: "os-" + string(rune('0'+i)), Version: "1"}),
				Power:  1,
			}
			mono[i] = Replica{
				Name:   string(rune('a' + i)),
				Config: config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: "os-0", Version: "1"}),
				Power:  1,
			}
		}
		dInj, err1 := Inject(c, diverse, 30*time.Minute)
		mInj, err2 := Inject(c, mono, 30*time.Minute)
		if err1 != nil || err2 != nil {
			return false
		}
		// Diverse: only os-0 (one replica) is hit. Monoculture: all hit.
		return dInj.TotalFraction <= 1.0/float64(n)+1e-9 && mInj.TotalFraction == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SumFraction >= TotalFraction always (double counting only adds).
func TestPropSumAtLeastDedup(t *testing.T) {
	f := func(seed uint8) bool {
		c := NewCatalog()
		v1 := validVuln()
		v2 := validVuln()
		v2.ID, v2.Version = "CVE-2", ""
		c.Add(v1)
		c.Add(v2)
		inj, err := Inject(c, fleet(nil), time.Duration(seed)*time.Hour)
		if err != nil {
			return false
		}
		return inj.SumFraction >= inj.TotalFraction-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWorstWindowStepwiseRejectsNegativeHorizon(t *testing.T) {
	c := NewCatalog()
	c.Add(validVuln())
	if _, err := WorstWindowStepwise(c, fleet(t), -time.Hour, time.Hour); err == nil {
		t.Fatal("negative horizon accepted")
	}
}
