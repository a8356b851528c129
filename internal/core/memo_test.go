package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/registry"
	"repro/internal/vuln"
)

// memoCase is one random deployment shaped like vuln's sweep cases —
// severities below 1, version-less vulnerabilities over several buckets,
// two component classes, small integral powers, disclosures and closes on a
// 3h grid — plus the mutations that can hit it afterwards.
type memoCase struct {
	rng     *rand.Rand
	reg     *registry.Registry
	cat     *vuln.Catalog
	alive   []registry.ReplicaID
	nextID  int
	nextCVE int
}

var (
	memoOSes     = []string{"os-a", "os-b", "os-c"}
	memoLibs     = []string{"lib-x", "lib-y"}
	memoVersions = []string{"1", "2"}
)

func (c *memoCase) config() config.Configuration {
	comps := []config.Component{{
		Class: config.ClassOperatingSystem, Name: memoOSes[c.rng.Intn(len(memoOSes))], Version: memoVersions[c.rng.Intn(len(memoVersions))],
	}}
	if c.rng.Intn(2) == 0 {
		comps = append(comps, config.Component{Class: config.ClassCryptoLibrary, Name: memoLibs[c.rng.Intn(len(memoLibs))], Version: "1"})
	}
	return config.MustNew(comps...)
}

func (c *memoCase) join(t *testing.T) {
	t.Helper()
	id := registry.ReplicaID(fmt.Sprintf("r-%03d", c.nextID))
	c.nextID++
	if err := c.reg.JoinDeclared(id, c.config(), float64(1+c.rng.Intn(5)), time.Duration(c.rng.Intn(5))*6*time.Hour); err != nil {
		t.Fatal(err)
	}
	c.alive = append(c.alive, id)
}

func (c *memoCase) disclose(t *testing.T) {
	t.Helper()
	v := vuln.Vulnerability{
		ID:       vuln.ID(fmt.Sprintf("CVE-%03d", c.nextCVE)),
		Class:    config.ClassOperatingSystem,
		Product:  memoOSes[c.rng.Intn(len(memoOSes))],
		Severity: 1,
	}
	c.nextCVE++
	if c.rng.Intn(3) == 0 {
		v.Class, v.Product = config.ClassCryptoLibrary, memoLibs[c.rng.Intn(len(memoLibs))]
	} else if c.rng.Intn(2) == 0 {
		v.Version = memoVersions[c.rng.Intn(len(memoVersions))]
	}
	v.Disclosed = time.Duration(c.rng.Intn(40)) * 3 * time.Hour
	v.PatchAt = v.Disclosed + time.Duration(c.rng.Intn(12))*3*time.Hour
	if c.rng.Intn(4) != 0 {
		v.Severity = float64(1+c.rng.Intn(10)) / 10
	}
	if err := c.cat.Add(v); err != nil {
		t.Fatal(err)
	}
}

// mutate applies one random SetPower / Migrate / Join / Leave / Catalog.Add.
func (c *memoCase) mutate(t *testing.T) {
	t.Helper()
	pick := func() (int, registry.ReplicaID) {
		i := c.rng.Intn(len(c.alive))
		return i, c.alive[i]
	}
	var err error
	switch op := c.rng.Intn(5); {
	case op == 0:
		_, id := pick()
		err = c.reg.SetPower(id, float64(1+c.rng.Intn(5)))
	case op == 1:
		_, id := pick()
		err = c.reg.Migrate(id, c.config())
	case op == 2:
		c.join(t)
	case op == 3 && len(c.alive) > 1:
		i, id := pick()
		err = c.reg.Leave(id)
		c.alive = append(c.alive[:i], c.alive[i+1:]...)
	default:
		c.disclose(t)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func newMemoCase(t *testing.T, rng *rand.Rand) *memoCase {
	t.Helper()
	c := &memoCase{rng: rng, reg: registry.New(nil, nil), cat: vuln.NewCatalog()}
	for i, n := 0, 1+rng.Intn(24); i < n; i++ {
		c.join(t)
	}
	// One case in eight starts with nothing disclosed: no boundary ever.
	if rng.Intn(8) != 0 {
		for i, n := 0, 1+rng.Intn(10); i < n; i++ {
			c.disclose(t)
		}
	}
	return c
}

// state identifies what an assessment is a function of besides the instant:
// the registry snapshot and the catalog generation.
type state struct {
	snap   *registry.Snapshot
	catGen uint64
}

func (c *memoCase) state(t *testing.T) state {
	t.Helper()
	snap, err := c.reg.Snapshot(registry.DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	return state{snap, c.cat.Generation()}
}

// firstCriticalAfter is the first of the deployment's critical instants
// strictly after at — where an evaluation at at stops holding — or
// vuln.Never, from an injector built for the question.
func (c *memoCase) firstCriticalAfter(t *testing.T, at time.Duration) time.Duration {
	t.Helper()
	snap, err := c.reg.Snapshot(registry.DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := vuln.NewGroupInjector(c.cat, snap.BucketSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range gi.CriticalInstants(vuln.Never) {
		if ci > at {
			return ci
		}
	}
	return vuln.Never
}

// requireSameAssessment compares field by field, fault by fault and
// compromised name by name.
func requireSameAssessment(t *testing.T, when string, got, want Assessment) {
	t.Helper()
	if got.At != want.At || got.Injection.At != want.Injection.At {
		t.Fatalf("%s: stamped %v / %v, want %v / %v", when, got.At, got.Injection.At, want.At, want.Injection.At)
	}
	if got.Diversity != want.Diversity {
		t.Fatalf("%s: diversity %+v, want %+v", when, got.Diversity, want.Diversity)
	}
	if got.Substrate != want.Substrate || got.Threshold != want.Threshold || got.Safe != want.Safe {
		t.Fatalf("%s: verdict %s/%v/%t, want %s/%v/%t", when, got.Substrate, got.Threshold, got.Safe, want.Substrate, want.Threshold, want.Safe)
	}
	gi, wi := got.Injection, want.Injection
	if gi.TotalFraction != wi.TotalFraction || gi.SumFraction != wi.SumFraction || len(gi.Faults) != len(wi.Faults) {
		t.Fatalf("%s: injection %+v, want %+v", when, gi, wi)
	}
	for k, wf := range wi.Faults {
		gf := gi.Faults[k]
		if gf.Vuln != wf.Vuln || gf.Power != wf.Power || gf.PowerFraction != wf.PowerFraction {
			t.Fatalf("%s: fault %d = %+v, want %+v", when, k, gf, wf)
		}
		if (gf.Compromised == nil) != (wf.Compromised == nil) || len(gf.Compromised) != len(wf.Compromised) {
			t.Fatalf("%s: fault %s compromises %v, want %v", when, wf.Vuln, gf.Compromised, wf.Compromised)
		}
		for n, name := range wf.Compromised {
			if gf.Compromised[n] != name {
				t.Fatalf("%s: fault %s compromises %v, want %v", when, wf.Vuln, gf.Compromised, wf.Compromised)
			}
		}
	}
}

// TestPropAssessMemoIsExact: a long-lived monitor's Assess equals a fresh
// monitor's at every step of random walks that stay inside the memoised
// interval, land exactly on its end, step back below the instant it was
// filled at, and interleave every kind of mutation — in full and in
// summary-fault form — and the memo answers exactly the steps it may:
// those inside [fill instant, first critical instant after it) with no
// mutation since.
func TestPropAssessMemoIsExact(t *testing.T) {
	cases := 3000
	if testing.Short() {
		cases = 300
	}
	rng := rand.New(rand.NewSource(20230930))
	var inside, onEnd, below, afterMutation int
	for i := 0; i < cases; i++ {
		c := newMemoCase(t, rng)
		full, err := NewMonitor(c.reg, WithCatalog(c.cat))
		if err != nil {
			t.Fatal(err)
		}
		summary, err := NewMonitor(c.reg, WithCatalog(c.cat), WithSummaryFaults())
		if err != nil {
			t.Fatal(err)
		}
		// The walk: where the memo was filled, how far it holds, and
		// whether the deployment changed since.
		var (
			at, from, until time.Duration
			filled          bool
			lastFill        uint64
			filledOn        state
		)
		for step := 0; step < 12; step++ {
			switch move := rng.Intn(6); {
			case !filled || move == 0:
				at = time.Duration(rng.Intn(70))*3*time.Hour + time.Duration(rng.Intn(3))*time.Hour
			case move == 1:
				c.mutate(t)
			case move == 2 && until != vuln.Never:
				at = until
			case move == 3 && from > 0:
				at = from - 1 - time.Duration(rng.Int63n(int64(from)))
			default: // stay inside the interval, its last nanosecond included
				span := until - from
				if until == vuln.Never {
					span = 1000 * time.Hour
				}
				at = from + time.Duration(rng.Int63n(int64(span)))
				if rng.Intn(4) == 0 {
					at = from + span - 1
				}
			}
			// A mutation that changes nothing (a power set to what it was)
			// leaves the registry's snapshot, and rightly the memo, alone.
			mutated := c.state(t) != filledOn
			wantHit := filled && !mutated && from <= at && at < until
			switch {
			case wantHit:
				inside++
			case mutated:
				afterMutation++
			case filled && at == until:
				onEnd++
			case filled && at < from:
				below++
			}

			when := fmt.Sprintf("case %d step %d at %v (memo [%v, %v), mutated %t)", i, step, at, from, until, mutated)
			before := full.Stats()
			got, fill, err := full.AssessMemo(at)
			if err != nil {
				t.Fatal(err)
			}
			after := full.Stats()
			if hit := after.AssessMemoHits == before.AssessMemoHits+1; hit != wantHit {
				t.Fatalf("%s: memo hit %t, want %t", when, hit, wantHit)
			}
			if same := fill == lastFill; same != wantHit {
				t.Fatalf("%s: fill %d after %d on a hit=%t", when, fill, lastFill, wantHit)
			}
			fresh, err := NewMonitor(c.reg, WithCatalog(c.cat))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Assess(at)
			if err != nil {
				t.Fatal(err)
			}
			requireSameAssessment(t, when, got, want)

			gotSummary, err := summary.Assess(at)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.Injection.Faults {
				want.Injection.Faults[k].Compromised = nil
			}
			requireSameAssessment(t, when+", summary faults", gotSummary, want)

			if !wantHit {
				from, until, filled, lastFill, filledOn = at, c.firstCriticalAfter(t, at), true, fill, c.state(t)
			}
		}
	}
	for name, n := range map[string]int{"inside the interval": inside, "on its end": onEnd, "below the fill instant": below, "after a mutation": afterMutation} {
		if n < cases/10 {
			t.Fatalf("only %d steps %s: the walk does not exercise it", n, name)
		}
	}
}

// TestFillsTellComputationsApart: two results carry the same fill exactly
// when they are one memoised computation, across both memos.
func TestFillsTellComputationsApart(t *testing.T) {
	reg := testRegistry(t)
	cat := debianVuln()
	mon, err := NewMonitor(reg, WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	assess := func(at time.Duration) uint64 {
		t.Helper()
		_, fill, err := mon.AssessMemo(at)
		if err != nil {
			t.Fatal(err)
		}
		return fill
	}
	worst := func(h time.Duration) uint64 {
		t.Helper()
		_, fill, err := mon.WorstAssessmentMemo(h)
		if err != nil {
			t.Fatal(err)
		}
		return fill
	}
	// debianVuln: disclosed 10h, patched 20h, every replica 24h late.
	a0, w0 := assess(0), worst(100*time.Hour)
	if a0 == w0 || a0 == 0 || w0 == 0 {
		t.Fatalf("first fills %d and %d: want two distinct non-zero ones", a0, w0)
	}
	if got := assess(9 * time.Hour); got != a0 {
		t.Fatalf("inside the interval: fill %d, want %d", got, a0)
	}
	if got := worst(100 * time.Hour); got != w0 {
		t.Fatalf("repeated sweep: fill %d, want %d", got, w0)
	}
	a1 := assess(10 * time.Hour)
	if a1 == a0 || a1 == w0 {
		t.Fatalf("across the disclosure: fill %d again", a1)
	}
	if w1 := worst(50 * time.Hour); w1 == w0 || w1 == a1 {
		t.Fatalf("another horizon: fill %d again", w1)
	}
	if err := cat.Add(vuln.Vulnerability{
		ID: "CVE-late", Class: config.ClassOperatingSystem, Product: "fedora",
		Disclosed: 500 * time.Hour, PatchAt: 501 * time.Hour, Severity: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if got := assess(10 * time.Hour); got == a1 {
		t.Fatalf("after a disclosure: fill %d again", got)
	}
}

// TestMemoisedAssessmentsAreNeverWrittenAgain: what Assess returns stays as
// returned — later hits re-stamp their own copy — and whatever a caller does
// to its copy's fields does not reach the next caller. The concurrent half
// reads every shared slice while other goroutines assess, sweep and mutate;
// under -race any write to a handed-out slice is a report.
func TestMemoisedAssessmentsAreNeverWrittenAgain(t *testing.T) {
	reg := testRegistry(t)
	mon, err := NewMonitor(reg, WithCatalog(debianVuln()))
	if err != nil {
		t.Fatal(err)
	}
	first, err := mon.Assess(12 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	kept := first
	kept.Injection.Faults = append([]vuln.Fault(nil), first.Injection.Faults...)
	for k := range kept.Injection.Faults {
		kept.Injection.Faults[k].Compromised = append([]string(nil), first.Injection.Faults[k].Compromised...)
	}
	second, err := mon.Assess(13 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if second.At != 13*time.Hour || second.Injection.At != 13*time.Hour {
		t.Fatalf("hit stamped %v / %v, want 13h", second.At, second.Injection.At)
	}
	if !reflect.DeepEqual(first, kept) {
		t.Fatalf("a later hit rewrote a returned assessment:\n got %+v\nwant %+v", first, kept)
	}
	second.At, second.Injection.At, second.Safe = 999*time.Hour, 999*time.Hour, true
	third, err := mon.Assess(14 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	kept.At, kept.Injection.At = 14*time.Hour, 14*time.Hour
	if !reflect.DeepEqual(third, kept) {
		t.Fatalf("a caller's edit of its copy reached the next hit:\n got %+v\nwant %+v", third, kept)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	read := func(a Assessment) (n int) {
		for _, f := range a.Injection.Faults {
			for _, name := range f.Compromised {
				n += len(name)
			}
		}
		return n
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var a Assessment
				var err error
				if g%2 == 0 {
					a, err = mon.Assess(time.Duration(10+i%30) * time.Hour)
				} else {
					a, err = mon.WorstAssessment(time.Duration(40+10*(i%2)) * time.Hour)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if read(a) == 0 {
					t.Errorf("goroutine %d: no compromised names in %+v", g, a)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if err := reg.SetPower("r1", float64(30+i%7)); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
