package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/diversity"
	"repro/internal/registry"
	"repro/internal/vuln"
)

func osCfg(name string) config.Configuration {
	return config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: name, Version: "1"})
}

func testRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg := registry.New(nil)
	// 3 replicas on debian (monoculture cluster), 1 each on two others.
	for _, j := range []struct {
		id  registry.ReplicaID
		os  string
		pow float64
	}{
		{"r1", "debian", 30}, {"r2", "debian", 20}, {"r3", "debian", 10},
		{"r4", "fedora", 25}, {"r5", "openbsd", 15},
	} {
		if err := reg.JoinDeclared(j.id, osCfg(j.os), j.pow, 24*time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func debianVuln() *vuln.Catalog {
	cat := vuln.NewCatalog()
	err := cat.Add(vuln.Vulnerability{
		ID: "CVE-debian", Class: config.ClassOperatingSystem, Product: "debian",
		Disclosed: 10 * time.Hour, PatchAt: 20 * time.Hour, Severity: 1,
	})
	if err != nil {
		panic(err)
	}
	return cat
}

func TestNewMonitorValidation(t *testing.T) {
	reg := registry.New(nil)
	if _, err := NewMonitor(nil); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := NewMonitor(reg, WithCatalog(nil)); err == nil {
		t.Fatal("nil catalog accepted")
	}
	if _, err := NewMonitor(reg, WithWeighting(registry.Weighting{Attested: -1, Declared: 1})); err == nil {
		t.Fatal("bad weighting accepted")
	}
	if _, err := NewMonitor(reg, WithClock(nil)); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewMonitor(reg, WithWatchInterval(0)); err == nil {
		t.Fatal("zero watch interval accepted")
	}
	if _, err := NewMonitor(reg, nil); err == nil {
		t.Fatal("nil option accepted")
	}
}

func TestMonitorDefaults(t *testing.T) {
	mon, err := NewMonitor(testRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if mon.Threshold() != BFTThreshold {
		t.Fatalf("default threshold = %v, want %v", mon.Threshold(), BFTThreshold)
	}
	if mon.Substrate() != BFT {
		t.Fatalf("default substrate = %+v, want %+v", mon.Substrate(), BFT)
	}
	// Empty default catalog: always safe, whatever the time.
	a, err := mon.Assess(15 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Safe || len(a.Injection.Faults) != 0 {
		t.Fatalf("empty-catalog assessment = %+v", a)
	}
}

func TestMonitorSubstrateSelection(t *testing.T) {
	reg := testRegistry(t)
	// Under a Nakamoto-family tolerance (1/2), debian's 60% still breaks;
	// under a permissive custom family it does not.
	nak, err := NewMonitor(reg, WithCatalog(debianVuln()), WithSubstrate(Nakamoto))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := nak.Assess(15 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Safe || mid.Substrate != "nakamoto" || mid.Threshold != NakamotoThreshold {
		t.Fatalf("nakamoto assessment = %+v", mid)
	}
	loose, err := NewMonitor(reg, WithCatalog(debianVuln()), WithSubstrate(Threshold(0.75)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := loose.Assess(15 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Safe {
		t.Fatal("60% fault unsafe against f=0.75")
	}
}

func TestWatchStreamsAndTerminates(t *testing.T) {
	var mu sync.Mutex
	now := time.Duration(0)
	clock := func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		now += 5 * time.Hour // each tick advances virtual time 5h
		return now
	}
	mon, err := NewMonitor(testRegistry(t),
		WithCatalog(debianVuln()),
		WithClock(clock),
		WithWatchInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stream := mon.Watch(ctx)
	// t=5h (safe, pre-disclosure), t=10h..20h (unsafe window).
	first, ok := <-stream
	if !ok || !first.Safe || first.At != 5*time.Hour {
		t.Fatalf("first assessment = %+v, ok=%v", first, ok)
	}
	second, ok := <-stream
	if !ok || second.Safe {
		t.Fatalf("second assessment = %+v, ok=%v (want unsafe inside window)", second, ok)
	}
	cancel()
	// The stream must terminate: drain until close, bounded by a timeout.
	done := make(chan struct{})
	go func() {
		for range stream {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Watch did not terminate on context cancellation")
	}
}

func TestMonitorAssess(t *testing.T) {
	reg := testRegistry(t)
	mon, err := NewMonitor(reg, WithCatalog(debianVuln()))
	if err != nil {
		t.Fatal(err)
	}
	// Before disclosure: no faults, safe.
	pre, err := mon.Assess(5 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Safe || len(pre.Injection.Faults) != 0 {
		t.Fatalf("pre-disclosure assessment = %+v", pre)
	}
	if pre.Diversity.Support != 3 {
		t.Fatalf("support = %d, want 3 (debian, fedora, openbsd)", pre.Diversity.Support)
	}
	// Inside the window: debian (60% of power) is compromised → unsafe.
	mid, err := mon.Assess(15 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Safe {
		t.Fatal("majority-power fault reported safe against f=1/3")
	}
	if math.Abs(mid.Injection.TotalFraction-0.6) > 1e-9 {
		t.Fatalf("compromised fraction = %v, want 0.6", mid.Injection.TotalFraction)
	}
	// After patch + latency (20h + 24h): safe again.
	post, err := mon.Assess(50 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !post.Safe {
		t.Fatal("post-patch assessment unsafe")
	}
}

func TestWorstAssessment(t *testing.T) {
	reg := testRegistry(t)
	mon, _ := NewMonitor(reg, WithCatalog(debianVuln()))
	worst, err := mon.WorstAssessment(100 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Safe {
		t.Fatal("worst window reported safe")
	}
	if worst.At < 10*time.Hour || worst.At >= 44*time.Hour {
		t.Fatalf("worst at %v, outside window", worst.At)
	}
	// One sweep so far; a memoised repeat adds nothing to the counters, a
	// new horizon sweeps again.
	first := mon.Stats()
	if first.WorstSweeps != 1 || first.WorstInstants == 0 ||
		first.WorstEvaluated == 0 || first.WorstEvaluated > first.WorstInstants {
		t.Fatalf("after one sweep: %+v", first)
	}
	if _, err := mon.WorstAssessment(100 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if s := mon.Stats(); s.WorstSweeps != 1 || s.WorstInstants != first.WorstInstants || s.WorstEvaluated != first.WorstEvaluated {
		t.Fatalf("memoised worst assessment moved the sweep counters: %+v -> %+v", first, s)
	}
	if _, err := mon.WorstAssessment(50 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if s := mon.Stats(); s.WorstSweeps != 2 || s.WorstInstants <= first.WorstInstants {
		t.Fatalf("second horizon did not sweep: %+v", s)
	}
	if _, err := mon.WorstAssessment(-time.Hour); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

// The monitor's snapshot cache must observe registry mutations: a leave
// that removes compromised power changes the very next assessment.
func TestMonitorObservesRegistryMutation(t *testing.T) {
	reg := testRegistry(t)
	mon, err := NewMonitor(reg, WithCatalog(debianVuln()))
	if err != nil {
		t.Fatal(err)
	}
	mid, err := mon.Assess(15 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mid.Injection.TotalFraction-0.6) > 1e-9 {
		t.Fatalf("compromised fraction = %v, want 0.6", mid.Injection.TotalFraction)
	}
	// r1 (debian, power 30) leaves: debian holds 30 of 70 now.
	if err := reg.Leave("r1"); err != nil {
		t.Fatal(err)
	}
	after, err := mon.Assess(15 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want := 30.0 / 70.0
	if math.Abs(after.Injection.TotalFraction-want) > 1e-9 {
		t.Fatalf("post-leave fraction = %v, want %v (stale snapshot?)", after.Injection.TotalFraction, want)
	}
	// SetPower must invalidate too.
	if err := reg.SetPower("r2", 0); err != nil {
		t.Fatal(err)
	}
	drained, err := mon.Assess(15 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want = 10.0 / 50.0
	if math.Abs(drained.Injection.TotalFraction-want) > 1e-9 {
		t.Fatalf("post-SetPower fraction = %v, want %v", drained.Injection.TotalFraction, want)
	}
}

// TestMonitorRefusesOverflowingWeightedPower: the registry keeps the summed
// raw power within vuln.MaxPowerUnits units, so a fleet at the ceiling is
// assessed at face value. A weighting multiplier that takes the weighted
// total past the ceiling must fail the assessment, not read as safe — on
// the rebuild path and on the delta path.
func TestMonitorRefusesOverflowingWeightedPower(t *testing.T) {
	const half = 3_074_457_345.618258602 // two of these stay within vuln.MaxPowerUnits units, three do not
	cat := vuln.NewCatalog()
	if err := cat.Add(vuln.Vulnerability{
		ID: "CVE-1", Class: config.ClassOperatingSystem, Product: "a", Version: "1",
		PatchAt: 1000 * time.Hour, Severity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(nil)
	for _, os := range []string{"a", "b"} {
		if err := reg.JoinDeclared(registry.ReplicaID(os), osCfg(os), half, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.JoinDeclared("c", osCfg("c"), half, 0); err == nil {
		t.Fatal("a join past the summed-power ceiling was accepted")
	}
	setPowers := func(p float64) {
		t.Helper()
		for _, id := range []registry.ReplicaID{"a", "b"} {
			if err := reg.SetPower(id, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	mon, err := NewMonitor(reg, WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	if a, err := mon.Assess(time.Hour); err != nil || a.Safe || a.Injection.TotalFraction != 0.5 {
		t.Fatalf("face value at the ceiling: %+v, %v; want unsafe at 0.5", a.Injection, err)
	}
	weighted, err := NewMonitor(reg, WithCatalog(cat), WithWeighting(registry.Weighting{Attested: 1, Declared: 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	if a, err := weighted.Assess(time.Hour); err == nil {
		t.Fatalf("rebuild path assessed a weighted total past the ceiling: safe=%v totalFraction=%v", a.Safe, a.Injection.TotalFraction)
	}
	if _, err := weighted.WorstAssessment(24 * time.Hour); err == nil {
		t.Fatal("worst window over a weighted total past the ceiling")
	}
	setPowers(1)
	a, err := weighted.Assess(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if a.Safe || a.Injection.TotalFraction != 0.5 || a.Diversity.Entropy != 1 {
		t.Fatalf("powers 1 + 1: safe=%v totalFraction=%v entropy=%v, want false, 0.5, 1", a.Safe, a.Injection.TotalFraction, a.Diversity.Entropy)
	}
	setPowers(half)
	if _, err := weighted.Assess(time.Hour); err == nil {
		t.Fatal("delta path assessed a weighted total past the ceiling")
	}
}

// A vulnerability added to the catalog after the monitor has warmed its
// caches must appear in the very next assessment, without any registry
// mutation in between.
func TestMonitorObservesCatalogAdd(t *testing.T) {
	reg := testRegistry(t)
	cat := vuln.NewCatalog()
	mon, err := NewMonitor(reg, WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := mon.Assess(15 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Injection.Faults) != 0 {
		t.Fatalf("empty catalog produced faults: %+v", warm.Injection)
	}
	if err := cat.Add(vuln.Vulnerability{
		ID: "CVE-debian", Class: config.ClassOperatingSystem, Product: "debian",
		Disclosed: 10 * time.Hour, PatchAt: 20 * time.Hour, Severity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	after, err := mon.Assess(15 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after.Injection.TotalFraction-0.6) > 1e-9 {
		t.Fatalf("post-Add fraction = %v, want 0.6 (stale injector?)", after.Injection.TotalFraction)
	}
}

// Two monitors over one registry with different weightings must not share
// cached snapshots, and concurrent assessment on a quiescent registry must
// be race-free (Watch assesses from its own goroutine). The monitors
// deliberately share one catalog: its lazily sorted order must survive
// concurrent readers racing to rebuild it.
func TestMonitorConcurrentAssess(t *testing.T) {
	reg := testRegistry(t)
	shared := debianVuln()
	plain, err := NewMonitor(reg, WithCatalog(shared))
	if err != nil {
		t.Fatal(err)
	}
	halved, err := NewMonitor(reg, WithCatalog(shared),
		WithWeighting(registry.Weighting{Attested: 1, Declared: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mon := plain
			if i%2 == 1 {
				mon = halved
			}
			for j := 0; j < 50; j++ {
				a, err := mon.Assess(time.Duration(j) * time.Hour)
				if err != nil {
					t.Error(err)
					return
				}
				if a.Diversity.Support != 3 {
					t.Errorf("support = %d", a.Diversity.Support)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestCacheStatsCountComputations pins the accounting contract monitord
// relies on: every assessment on an unchanged (registry, catalog) pair is
// a Hit, and exactly one Rebuild happens per generation the monitor
// observes — regardless of how many times or from how many goroutines it
// is asked.
func TestCacheStatsCountComputations(t *testing.T) {
	reg := testRegistry(t)
	mon, err := NewMonitor(reg, WithCatalog(debianVuln()))
	if err != nil {
		t.Fatal(err)
	}
	if s := mon.Stats(); s.Rebuilds != 0 || s.Hits != 0 {
		t.Fatalf("fresh monitor stats = %+v", s)
	}
	for j := 0; j < 10; j++ {
		if _, err := mon.Assess(time.Duration(j) * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if s := mon.Stats(); s.Rebuilds != 1 || s.Hits != 9 {
		t.Fatalf("after 10 assessments on one generation: %+v, want 1 rebuild / 9 hits", s)
	}
	// One mutation → exactly one delta-apply, however many reads follow.
	if err := reg.SetPower("r1", 31); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := mon.Assess(time.Duration(j) * time.Minute); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := mon.Stats(); s.Rebuilds != 1 || s.DeltaApplies != 1 || s.Rebuilds+s.DeltaApplies+s.Hits != 10+8*25 {
		t.Fatalf("after mutation + 200 concurrent reads: %+v, want 1 rebuild + 1 delta-apply total", s)
	}
	// A catalog disclosure is a generation too.
	cat := debianVuln()
	mon3, err := NewMonitor(reg, WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon3.Assess(0); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(vuln.Vulnerability{
		ID: "CVE-fedora", Class: config.ClassOperatingSystem, Product: "fedora",
		Disclosed: time.Hour, PatchAt: 2 * time.Hour, Severity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mon3.Assess(0); err != nil {
		t.Fatal(err)
	}
	if s := mon3.Stats(); s.Rebuilds != 1 || s.DeltaApplies != 1 {
		t.Fatalf("catalog add did not count as a delta-apply: %+v", s)
	}
}

func TestEvaluateTwoTier(t *testing.T) {
	reg := registry.New(nil)
	// Attested tier: diverse, modest power. Declared tier: a debian
	// monoculture holding most of the power.
	type join struct {
		id       registry.ReplicaID
		os       string
		pow      float64
		attested bool
	}
	joins := []join{
		{"a1", "fedora", 10, true}, {"a2", "openbsd", 10, true}, {"a3", "freebsd", 10, true},
		{"d1", "debian", 40, false}, {"d2", "debian", 30, false},
	}
	for _, j := range joins {
		var err error
		if j.attested {
			// Simulate attestation by declaring via a registry with no
			// authority: tier stays declared. Instead join declared and
			// patch the tier is impossible — so use a real authority path.
			err = reg.JoinDeclared(j.id, osCfg(j.os), j.pow, time.Hour)
		} else {
			err = reg.JoinDeclared(j.id, osCfg(j.os), j.pow, time.Hour)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// All joined declared; the discount applies to everyone, so entropy is
	// unchanged (pure rescale). This guards the weighting math.
	out, err := EvaluateTwoTier(reg, debianVuln(), NakamotoThreshold, 0.5, 15*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Plain.Diversity.Entropy-out.Weighted.Diversity.Entropy) > 1e-9 {
		t.Fatalf("uniform discount changed entropy: %v vs %v",
			out.Plain.Diversity.Entropy, out.Weighted.Diversity.Entropy)
	}
	if _, err := EvaluateTwoTier(reg, debianVuln(), NakamotoThreshold, -0.1, 0); err == nil {
		t.Fatal("negative discount accepted")
	}
	if _, err := EvaluateTwoTier(reg, debianVuln(), NakamotoThreshold, 0, 0); err == nil {
		t.Fatal("discount 0 with no attested power accepted")
	}
}

func TestAdmissionPolicyTwoTier(t *testing.T) {
	d := diversity.MustFromSlice([]float64{25, 25, 25, 25})
	p := AdmissionPolicy{TargetShare: 0.5, DeclaredDiscount: 0.25}
	att, err := p.Decide(d, "new-config", 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if att.Weight != 1 {
		t.Fatalf("attested weight = %v, want 1", att.Weight)
	}
	dec, _ := p.Decide(d, "new-config", 10, false)
	if dec.Weight != 0.25 {
		t.Fatalf("declared weight = %v, want 0.25", dec.Weight)
	}
}

func TestAdmissionPolicyShareCap(t *testing.T) {
	// Existing distribution: config "fat" already has 40 of 100 power.
	d, err := diversity.FromWeights(map[string]float64{"fat": 40, "x": 30, "y": 30})
	if err != nil {
		t.Fatal(err)
	}
	p := AdmissionPolicy{TargetShare: 0.5, DeclaredDiscount: 1}
	// A 100-power joiner on "fat" would push it to 140/200 = 70%; the
	// policy must scale it down so the share lands at exactly 50%:
	// (40 + e)/(100 + e) = 0.5 -> e = 20 -> weight 0.2.
	dec, err := p.Decide(d, "fat", 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.Weight-0.2) > 1e-9 {
		t.Fatalf("weight = %v, want 0.2", dec.Weight)
	}
	if dec.Reason != "configuration share cap" {
		t.Fatalf("reason = %q", dec.Reason)
	}
	// A configuration already above the cap admits at weight 0.
	tight := AdmissionPolicy{TargetShare: 0.3, DeclaredDiscount: 1}
	dec, _ = tight.Decide(d, "fat", 10, true)
	if dec.Weight != 0 {
		t.Fatalf("weight = %v, want 0 (already above cap)", dec.Weight)
	}
	// A small joiner on a fresh config keeps full weight.
	dec, _ = p.Decide(d, "fresh", 10, true)
	if dec.Weight != 1 {
		t.Fatalf("fresh config weight = %v", dec.Weight)
	}
}

func TestAdmissionPolicyValidation(t *testing.T) {
	d := diversity.Uniform(2)
	bad := []AdmissionPolicy{
		{TargetShare: 0, DeclaredDiscount: 1},
		{TargetShare: 1.5, DeclaredDiscount: 1},
		{TargetShare: 0.5, DeclaredDiscount: -1},
		{TargetShare: 0.5, DeclaredDiscount: 2},
	}
	for _, p := range bad {
		if _, err := p.Decide(d, "x", 1, true); err == nil {
			t.Fatalf("policy %+v accepted", p)
		}
	}
	good := AdmissionPolicy{TargetShare: 0.5, DeclaredDiscount: 1}
	if _, err := good.Decide(d, "x", math.NaN(), true); err == nil {
		t.Fatal("NaN power accepted")
	}
}
