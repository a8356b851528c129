package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/vuln"
)

var analyticProfileNames = []string{"churn-heavy", "disclosure-storm", "partition-flap", "adaptive-adversary"}

// slotObserver keeps the record pointer of every AfterEvent call (which a
// real observer must not do) and stamps the record through it, so a test
// can tell afterwards whether each pointer was the record's final slot.
type slotObserver struct{ slots []*Record }

func (o *slotObserver) AfterEvent(e *Engine, info EventInfo, rec *Record) error {
	rec.CheckDetail = fmt.Sprintf("slot-%d", rec.Seq)
	o.slots = append(o.slots, rec)
	return nil
}

// TestTraceIsFilledInPlace: on every analytic profile the pointer an
// observer gets is the record's slot in the returned trace — its annotation
// is the stored record — and the trace's backing array, sized once before
// the run, never moves.
func TestTraceIsFilledInPlace(t *testing.T) {
	for _, name := range analyticProfileNames {
		p, ok := LookupProfile(name)
		if !ok {
			t.Fatalf("no %s profile", name)
		}
		for index := 0; index < 20; index++ {
			obs := &slotObserver{}
			res, err := Run(p.Generate(42, index).Def(), 42, WithObserver(obs))
			if err != nil {
				t.Fatalf("%s#%d: %v", name, index, err)
			}
			if len(obs.slots) != len(res.Records) {
				t.Fatalf("%s#%d: observed %d records, trace has %d", name, index, len(obs.slots), len(res.Records))
			}
			for i := range res.Records {
				if obs.slots[i] != &res.Records[i] {
					t.Fatalf("%s#%d: record %d was observed outside its final slot: the trace moved", name, index, i)
				}
				if want := fmt.Sprintf("slot-%d", i); res.Records[i].CheckDetail != want {
					t.Fatalf("%s#%d: record %d carries %q, want %q", name, index, i, res.Records[i].CheckDetail, want)
				}
			}
		}
	}
}

// reentrantObserver emits a record from inside AfterEvent.
type reentrantObserver struct{}

func (reentrantObserver) AfterEvent(e *Engine, info EventInfo, rec *Record) error {
	return e.emit("nested", "", nil, EventInfo{Kind: "nested"})
}

// TestEmitIsNotReentrant: a record emitted while another is being observed
// fails the run instead of re-slicing the trace under the outer record.
func TestEmitIsNotReentrant(t *testing.T) {
	def := testDef("reentrant", time.Hour, 0, join(0, "a", testCfg("linux"), 1, 0))
	if _, err := Run(def, 1, WithObserver(reentrantObserver{})); err == nil || !strings.Contains(err.Error(), "emit re-entered") {
		t.Fatalf("nested emit did not fail the run: %v", err)
	}
}

// gateProbe runs right after a patchMonotoneObserver and compares its
// cached severity gate with a fresh scan of the catalog on every record the
// gate is consulted on.
type gateProbe struct {
	t      *testing.T
	pm     *patchMonotoneObserver
	seen   int
	lowSev []bool // the gate after each record
}

func (g *gateProbe) AfterEvent(e *Engine, info EventInfo, rec *Record) error {
	g.lowSev = append(g.lowSev, g.pm.lowSev)
	if rec.Seq == 0 || !pureEvents[rec.Event] {
		return nil
	}
	g.seen++
	want := false
	for _, v := range e.Catalog().All() {
		if v.Severity != 1 {
			want = true
		}
	}
	if g.pm.lowSev != want {
		g.t.Errorf("%s seq %d (%s): cached gate says lowSev=%t, the catalog says %t",
			rec.Scenario, rec.Seq, rec.Event, g.pm.lowSev, want)
	}
	return nil
}

// TestSeverityGateFlipsAfterLowSeverityDisclosure: the gate stays open
// through a severity-1 disclosure and closes on the first pure record after
// a severity < 1 one — the record the per-record scan would have closed on.
func TestSeverityGateFlipsAfterLowSeverityDisclosure(t *testing.T) {
	disclose := func(id string, at time.Duration, sev float64) Event {
		return Event{Op: OpDisclose, At: Duration(at), Vuln: &VulnSpec{
			ID: id, Class: "operating-system", Product: "linux",
			Disclosed: Duration(at), PatchAt: Duration(at + time.Hour), Severity: sev,
		}}
	}
	tl := &Timeline{
		Name: "tl-gate", Title: "t", Horizon: Duration(40 * time.Hour), Tick: Duration(10 * time.Hour),
		Events: []Event{
			{Op: OpJoin, At: 0, ID: "a", Config: osSpec("linux", "6.1"), Power: 1},
			{Op: OpJoin, At: 0, ID: "b", Config: osSpec("bsd", "14"), Power: 1},
			disclose("CVE-G-0001", 5*time.Hour, 1),
			disclose("CVE-G-0002", 15*time.Hour, 0.5),
		},
	}
	pm := &patchMonotoneObserver{}
	probe := &gateProbe{t: t, pm: pm}
	res, err := Run(tl.Def(), 42, WithObserver(pm), WithObserver(probe))
	if err != nil {
		t.Fatal(err)
	}
	lowAt := -1 // the severity-0.5 disclose record
	for i, rec := range res.Records {
		if rec.Event == "disclose" && strings.HasPrefix(rec.Detail, "CVE-G-0002") {
			lowAt = i
		}
	}
	if lowAt < 0 || lowAt+1 >= len(res.Records) || !pureEvents[res.Records[lowAt+1].Event] {
		t.Fatalf("timeline shape changed: low-severity disclose at %d of %d records", lowAt, len(res.Records))
	}
	for i, low := range probe.lowSev {
		if want := i > lowAt; low != want {
			t.Errorf("record %d (%s): gate lowSev=%t, want %t", i, res.Records[i].Event, low, want)
		}
	}
}

// TestSeverityGateMatchesCatalogScan: over generated timelines the cached
// gate answers every pure record exactly as a scan of the catalog would.
func TestSeverityGateMatchesCatalogScan(t *testing.T) {
	for _, name := range analyticProfileNames {
		p, _ := LookupProfile(name)
		consulted := 0
		for index := 0; index < 20; index++ {
			pm := &patchMonotoneObserver{}
			probe := &gateProbe{t: t, pm: pm}
			if _, err := Run(p.Generate(42, index).Def(), 42, WithObserver(pm), WithObserver(probe)); err != nil {
				t.Fatalf("%s#%d: %v", name, index, err)
			}
			consulted += probe.seen
		}
		if consulted == 0 {
			t.Errorf("%s: the gate was never consulted", name)
		}
	}
}

// TestSameInjectionMatchesJSONEquality: over an injection and its mutations
// the field comparison says "same" exactly when the two JSON encodings are
// equal — the comparison it replaced — and is stricter where JSON cannot
// encode at all (NaN).
func TestSameInjectionMatchesJSONEquality(t *testing.T) {
	base := func() vuln.Injection {
		return vuln.Injection{
			At: 36 * time.Hour,
			Faults: []vuln.Fault{
				{Vuln: "CVE-1", Compromised: []string{"a", "b"}, Power: 3, PowerFraction: 0.3},
				{Vuln: "CVE-2", Compromised: []string{"c"}, Power: 1, PowerFraction: 0.1},
			},
			TotalFraction: 0.4,
			SumFraction:   0.4,
		}
	}
	variants := map[string]vuln.Injection{"base": base()}
	mutate := func(name string, f func(inj *vuln.Injection)) {
		inj := base()
		f(&inj)
		variants[name] = inj
	}
	mutate("dropped fault", func(inj *vuln.Injection) { inj.Faults = inj.Faults[:1] })
	mutate("swapped names", func(inj *vuln.Injection) { inj.Faults[0].Compromised = []string{"b", "a"} })
	mutate("dropped name", func(inj *vuln.Injection) { inj.Faults[0].Compromised = []string{"a"} })
	mutate("nil compromised", func(inj *vuln.Injection) { inj.Faults[1].Compromised = nil })
	mutate("empty compromised", func(inj *vuln.Injection) { inj.Faults[1].Compromised = []string{} })
	mutate("one-ulp power", func(inj *vuln.Injection) { inj.Faults[0].Power = math.Nextafter(3, 4) })
	mutate("one-ulp fraction", func(inj *vuln.Injection) { inj.Faults[1].PowerFraction = math.Nextafter(0.1, 1) })
	mutate("one-ulp total", func(inj *vuln.Injection) { inj.TotalFraction = math.Nextafter(0.4, 1) })
	mutate("one-ulp sum", func(inj *vuln.Injection) { inj.SumFraction = math.Nextafter(0.4, 0) })
	mutate("other vuln", func(inj *vuln.Injection) { inj.Faults[1].Vuln = "CVE-3" })
	mutate("other instant", func(inj *vuln.Injection) { inj.At++ })
	mutate("nil faults", func(inj *vuln.Injection) { inj.Faults = nil })
	mutate("empty faults", func(inj *vuln.Injection) { inj.Faults = []vuln.Fault{} })
	mutate("zero total", func(inj *vuln.Injection) { inj.TotalFraction = 0 })
	mutate("negative zero total", func(inj *vuln.Injection) { inj.TotalFraction = math.Copysign(0, -1) })

	encode := func(inj vuln.Injection) string {
		b, err := json.Marshal(inj)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for an, a := range variants {
		for bn, b := range variants {
			if got, want := sameInjection(a, b), encode(a) == encode(b); got != want {
				t.Errorf("sameInjection(%s, %s) = %t, JSON equality = %t", an, bn, got, want)
			}
		}
	}
	nan := base()
	nan.TotalFraction = math.NaN()
	if sameInjection(nan, nan) {
		t.Error("an injection carrying NaN equals itself")
	}
}
