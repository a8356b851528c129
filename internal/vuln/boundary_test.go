package vuln

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"
)

// firstAfter is the first critical instant strictly after t, or Never.
func firstAfter(gi *GroupInjector, t time.Duration) time.Duration {
	for _, c := range gi.CriticalInstants(Never) {
		if c > t {
			return c
		}
	}
	return Never
}

// TestPropNextBoundary: over the sweep generator's cases — severities below
// 1, version-less vulnerabilities over several buckets, zero-power groups —
// the boundary an evaluation at t leaves behind is the first critical
// instant after t (Never past the last one, and on an empty catalog), all
// three evaluators agree on it, and the flat oracle confirms what it
// promises: the picture at t holds up to the boundary's last nanosecond.
func TestPropNextBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(20230930))
	asJSON := func(inj Injection) string {
		b, err := json.Marshal(inj)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	never, bounded := 0, 0
	for i := 0; i < 3000; i++ {
		cat, replicas, _ := sweepCase(rng)
		gi, err := NewGroupInjector(cat, bucketize(replicas))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 6; j++ {
			// On the 3h grid disclosures and closes sit on, and off it.
			at := time.Duration(rng.Intn(70))*3*time.Hour + time.Duration(rng.Intn(3))*time.Hour
			inj := gi.Inject(at)
			until := gi.NextBoundary()
			if want := firstAfter(gi, at); until != want {
				t.Fatalf("case %d: boundary after %v = %v, want %v", i, at, until, want)
			}
			if gi.InjectSummary(at); gi.NextBoundary() != until {
				t.Fatalf("case %d: InjectSummary(%v) leaves boundary %v, Inject %v", i, at, gi.NextBoundary(), until)
			}
			if gi.TotalFractionAt(at); gi.NextBoundary() != until {
				t.Fatalf("case %d: TotalFractionAt(%v) leaves boundary %v, Inject %v", i, at, gi.NextBoundary(), until)
			}
			if until == Never {
				never++
				until = at + 1000*time.Hour
			} else {
				bounded++
			}
			for _, later := range []time.Duration{at + (until-at)/2, until - 1} {
				flat, err := Inject(cat, replicas, later)
				if err != nil {
					t.Fatal(err)
				}
				want := inj
				want.At = later
				if got := asJSON(flat); got != asJSON(want) {
					t.Fatalf("case %d: picture of %v promised up to %v, but at %v the flat oracle sees\n got %s\nwant %s", i, at, until, later, got, asJSON(want))
				}
			}
		}
	}
	if never == 0 || bounded == 0 {
		t.Fatalf("%d bounded and %d unbounded intervals: the cases do not exercise both", bounded, never)
	}

	empty, err := NewGroupInjector(NewCatalog(), bucketize([]Replica{{Name: "r", Config: osCfg("os-a"), Power: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Inject(time.Hour); empty.NextBoundary() != Never {
		t.Fatalf("empty catalog: boundary %v, want Never", empty.NextBoundary())
	}
}
