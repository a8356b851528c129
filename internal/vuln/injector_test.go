package vuln

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/config"
)

// randomScenario builds a randomized catalog and replica set sharing a
// small product pool, so vulnerabilities overlap replicas in varied ways.
func randomScenario(rng *rand.Rand) (*Catalog, []Replica) {
	products := []string{"openssl", "boringssl", "libsodium", "wolfssl"}
	versions := []string{"1.0", "2.0", "3.0"}
	cat := NewCatalog()
	nVulns := 1 + rng.Intn(8)
	for i := 0; i < nVulns; i++ {
		disclosed := time.Duration(rng.Intn(150)) * time.Hour
		v := Vulnerability{
			ID:        ID(fmt.Sprintf("CVE-%03d", i)),
			Class:     config.ClassCryptoLibrary,
			Product:   products[rng.Intn(len(products))],
			Disclosed: disclosed,
			PatchAt:   disclosed + time.Duration(1+rng.Intn(72))*time.Hour,
			Severity:  rng.Float64()*0.999 + 0.001,
		}
		if rng.Intn(2) == 0 {
			v.Version = versions[rng.Intn(len(versions))]
		}
		if err := cat.Add(v); err != nil {
			panic(err)
		}
	}
	nReplicas := 1 + rng.Intn(20)
	replicas := make([]Replica, nReplicas)
	for i := range replicas {
		replicas[i] = Replica{
			Name: fmt.Sprintf("r-%03d", i),
			Config: config.MustNew(config.Component{
				Class:   config.ClassCryptoLibrary,
				Name:    products[rng.Intn(len(products))],
				Version: versions[rng.Intn(len(versions))],
			}),
			Power:        rng.Float64() * 10,
			PatchLatency: time.Duration(rng.Intn(96)) * time.Hour,
		}
	}
	return cat, replicas
}

// Property: the event-driven sweep dominates the stepwise scan (it can
// only find a worse-or-equal worst window), and the injector agrees
// exactly with the package-level Inject at every stepwise instant.
func TestPropEventSweepDominatesStepwise(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const (
		horizon = 250 * time.Hour
		step    = 7 * time.Hour // deliberately does not divide the event grid
	)
	for iter := 0; iter < 60; iter++ {
		cat, replicas := randomScenario(rng)
		exact, err := WorstWindow(cat, replicas, horizon)
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := WorstWindowStepwise(cat, replicas, horizon, step)
		if err != nil {
			t.Fatal(err)
		}
		// WorstWindowStepwise is an independent implementation; both sum
		// integer power units, so they compare exactly.
		if exact.TotalFraction < sampled.TotalFraction {
			t.Fatalf("iter %d: exact sweep %v below stepwise %v",
				iter, exact.TotalFraction, sampled.TotalFraction)
		}
		in, err := NewInjector(cat, replicas)
		if err != nil {
			t.Fatal(err)
		}
		for at := time.Duration(0); at <= horizon; at += step {
			ref, err := Inject(cat, replicas, at)
			if err != nil {
				t.Fatal(err)
			}
			if got := in.TotalFractionAt(at); got != ref.TotalFraction {
				t.Fatalf("iter %d t=%v: injector fraction %v != Inject %v",
					iter, at, got, ref.TotalFraction)
			}
			if got := in.Inject(at); got.TotalFraction != ref.TotalFraction ||
				got.SumFraction != ref.SumFraction || len(got.Faults) != len(ref.Faults) {
				t.Fatalf("iter %d t=%v: injector %+v != Inject %+v", iter, at, got, ref)
			}
		}
	}
}

// Property: on a 1-minute event grid, a 1-minute stepwise scan visits
// every piece of the step function, so the exact sweep must match it to
// the bit. This catches missing critical-instant kinds (e.g. forgetting
// that window closes can raise the deduplicated total).
func TestPropEventSweepExactOnFineGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		products := []string{"p0", "p1", "p2"}
		cat := NewCatalog()
		for i := 0; i < 1+rng.Intn(5); i++ {
			disclosed := time.Duration(rng.Intn(20)) * time.Minute
			if err := cat.Add(Vulnerability{
				ID:        ID(fmt.Sprintf("CVE-%03d", i)),
				Class:     config.ClassOperatingSystem,
				Product:   products[rng.Intn(len(products))],
				Disclosed: disclosed,
				PatchAt:   disclosed + time.Duration(1+rng.Intn(20))*time.Minute,
				Severity:  rng.Float64()*0.999 + 0.001,
			}); err != nil {
				t.Fatal(err)
			}
		}
		replicas := make([]Replica, 1+rng.Intn(10))
		for i := range replicas {
			replicas[i] = Replica{
				Name: fmt.Sprintf("r-%02d", i),
				Config: config.MustNew(config.Component{
					Class: config.ClassOperatingSystem, Name: products[rng.Intn(len(products))], Version: "1",
				}),
				Power:        float64(1 + rng.Intn(9)),
				PatchLatency: time.Duration(rng.Intn(30)) * time.Minute,
			}
		}
		const horizon = 80 * time.Minute
		exact, err := WorstWindow(cat, replicas, horizon)
		if err != nil {
			t.Fatal(err)
		}
		fine, err := WorstWindowStepwise(cat, replicas, horizon, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if exact.TotalFraction != fine.TotalFraction {
			t.Fatalf("iter %d: exact %v != fine-grid stepwise %v",
				iter, exact.TotalFraction, fine.TotalFraction)
		}
	}
}

// A severity < 1 exploit re-targets the remaining replicas when a window
// closes, so the worst instant can sit at a close boundary: vuln A
// (severity 0.5) takes r1 while r1 is exposed, but once r1's window for A
// closes it takes r2 — while vuln B holds r1 the whole time. The sweep
// must evaluate close instants to see the combined {r1, r2} peak.
func TestWorstWindowEvaluatesCloseInstants(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Add(Vulnerability{
		ID: "CVE-A", Class: config.ClassOperatingSystem, Product: "shared-os",
		Disclosed: 0, PatchAt: 10 * time.Hour, Severity: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(Vulnerability{
		ID: "CVE-B", Class: config.ClassCryptoLibrary, Product: "lib-of-r1",
		Disclosed: 0, PatchAt: 100 * time.Hour, Severity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	replicas := []Replica{
		{
			Name: "r1",
			Config: config.MustNew(
				config.Component{Class: config.ClassOperatingSystem, Name: "shared-os", Version: "1"},
				config.Component{Class: config.ClassCryptoLibrary, Name: "lib-of-r1", Version: "1"},
			),
			Power:        10,
			PatchLatency: 0, // CVE-A window for r1 closes at 10h
		},
		{
			Name: "r2",
			Config: config.MustNew(
				config.Component{Class: config.ClassOperatingSystem, Name: "shared-os", Version: "1"},
			),
			Power:        8,
			PatchLatency: 40 * time.Hour, // CVE-A window for r2 closes at 50h
		},
	}
	// Before 10h: CVE-A takes r1 (top power of 2 exposed, ceil(1)=1) and
	// CVE-B takes r1 → dedup 10/18. From 10h: CVE-A re-targets r2, CVE-B
	// still holds r1 → dedup 18/18.
	worst, err := WorstWindow(cat, replicas, 200*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if worst.TotalFraction != 1 {
		t.Fatalf("worst fraction = %v, want 1 (close instant missed)", worst.TotalFraction)
	}
	if worst.At != 10*time.Hour {
		t.Fatalf("worst at %v, want the 10h close boundary", worst.At)
	}
}

func TestInjectorSnapshotSemantics(t *testing.T) {
	cat := NewCatalog()
	v := validVuln()
	cat.Add(v)
	in, err := NewInjector(cat, fleet(nil))
	if err != nil {
		t.Fatal(err)
	}
	before := in.TotalFractionAt(15 * time.Hour)
	// Later catalog additions are invisible to an existing injector.
	w := validVuln()
	w.ID, w.Version = "CVE-later", ""
	if err := cat.Add(w); err != nil {
		t.Fatal(err)
	}
	if after := in.TotalFractionAt(15 * time.Hour); after != before {
		t.Fatalf("injector observed a post-build Add: %v -> %v", before, after)
	}
	// A fresh injector sees it, and the invalidated sort cache resorts.
	in2, err := NewInjector(cat, fleet(nil))
	if err != nil {
		t.Fatal(err)
	}
	if in2.TotalFractionAt(15*time.Hour) != before {
		// CVE-later overlaps CVE-1 on the same replicas; dedup unchanged.
		t.Fatalf("overlapping vuln changed dedup fraction")
	}
	all := cat.All()
	if len(all) != 2 || all[0].ID != "CVE-1" || all[1].ID != "CVE-later" {
		t.Fatalf("All after invalidation = %v", all)
	}
	// The returned slice is a copy: mutating it must not poison the cache.
	all[0].ID = "CVE-mutated"
	if got := cat.All(); got[0].ID != "CVE-1" {
		t.Fatalf("All cache corrupted by caller mutation: %v", got)
	}
}

func TestNewInjectorValidation(t *testing.T) {
	if _, err := NewInjector(nil, nil); err == nil {
		t.Fatal("nil catalog accepted")
	}
	if _, err := NewInjector(NewCatalog(), []Replica{{Name: "x", Power: -1}}); err == nil {
		t.Fatal("negative power accepted")
	}
	// Duplicate names would make "count each replica once" ambiguous.
	dup := []Replica{{Name: "x", Power: 1}, {Name: "x", Power: 2}}
	if _, err := NewInjector(NewCatalog(), dup); err == nil {
		t.Fatal("duplicate replica names accepted")
	}
	if _, err := Inject(NewCatalog(), dup, 0); err == nil {
		t.Fatal("Inject accepted duplicate replica names")
	}
}

// Float products landing an ulp above the exact integer must not round an
// extra replica in: ceil(0.07·100) is 7 even though the float64 product
// is 7.0000000000000009.
func TestSeverityTakeFloatRobust(t *testing.T) {
	cases := []struct {
		m        int
		severity float64
		want     int
	}{
		{100, 0.07, 7},
		{4, 0.5, 2},
		{4, 0.25, 1},
		{4, 0.26, 2},
		{1, 1e-9, 1},
		{3, 1, 3},
		{10, 0.1, 1},
		{1000, 0.003, 3},
	}
	for _, tc := range cases {
		if got := SeverityTake(tc.m, tc.severity); got != tc.want {
			t.Errorf("SeverityTake(%d, %v) = %d, want %d", tc.m, tc.severity, got, tc.want)
		}
	}
}

// Adding disclosures while other goroutines read the catalog (the live
// Monitor.Watch pattern) must be race-free.
func TestCatalogConcurrentAddAndRead(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Add(Vulnerability{
		ID: "CVE-seed", Class: config.ClassOperatingSystem, Product: "p0",
		Disclosed: 0, PatchAt: time.Hour, Severity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	replicas := []Replica{{
		Name:   "r1",
		Config: config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: "p0", Version: "1"}),
		Power:  1,
	}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = cat.Add(Vulnerability{
				ID: ID(fmt.Sprintf("CVE-live-%03d", i)), Class: config.ClassOperatingSystem,
				Product: "p0", Disclosed: 0, PatchAt: time.Hour, Severity: 1,
			})
		}
	}()
	for i := 0; i < 200; i++ {
		in, err := NewInjector(cat, replicas)
		if err != nil {
			t.Fatal(err)
		}
		if in.TotalFractionAt(30*time.Minute) != 1 {
			t.Fatal("seed vulnerability lost")
		}
		cat.Len()
		cat.Generation()
		cat.DisclosedAt(30 * time.Minute)
	}
	<-done
	if cat.Len() != 201 {
		t.Fatalf("len = %d, want 201", cat.Len())
	}
}
