package monitord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// readRoutes are the routes that answer from a kept body.
var readRoutes = []string{"assessment", "report", "worst?horizon=720h"}

// get issues one GET and requires a 200 whose Content-Length is the body's.
func get(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Fatalf("GET %s: Content-Length %q on a %s-byte body", path, got, want)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("GET %s: Content-Type %q", path, got)
	}
	return rec.Body.Bytes()
}

// encodeFresh is writeJSON's rendering of v.
func encodeFresh(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fromScratch renders what each read route must answer at instant at, from
// a monitor built for the occasion over the tenant's registry and catalog —
// no memo, no kept body.
func fromScratch(t *testing.T, tn *Tenant, at time.Duration) map[string][]byte {
	t.Helper()
	mon, err := core.NewMonitor(tn.Registry, core.WithCatalog(tn.Catalog), core.WithSubstrate(core.BFT))
	if err != nil {
		t.Fatal(err)
	}
	a, err := mon.Assess(at)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := mon.WorstAssessment(720 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"assessment":         encodeFresh(t, assessmentJSON(tn.Name, a)),
		"report":             encodeFresh(t, reportJSON(a.Diversity)),
		"worst?horizon=720h": encodeFresh(t, assessmentJSON(tn.Name, worst)),
	}
}

// atOf reads the instant an assessment body carries.
func atOf(t *testing.T, body []byte) time.Duration {
	t.Helper()
	var a AssessmentJSON
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return time.Duration(a.At)
}

// TestReadBodiesMatchFreshEncode: on virtual and wall-clock tenants, every
// read route answers — first from a miss, then from the kept body — exactly
// the bytes a from-scratch monitor and encoder produce, after every class of
// mutation and across clock advances; and the kept bodies change when, and
// only when, the state does.
func TestReadBodiesMatchFreshEncode(t *testing.T) {
	for _, virtual := range []bool{true, false} {
		t.Run(fmt.Sprintf("virtual=%t", virtual), func(t *testing.T) {
			s := NewServer()
			defer s.Close()
			spec := testSpec()
			spec.Virtual = virtual
			if !virtual {
				// A wall tenant lives a few milliseconds: open the window now.
				spec.Vulns[0].Disclosed = 0
			}
			if code := do(t, s, "PUT", "/tenants/x", spec, nil); code != http.StatusCreated {
				t.Fatalf("create: %d", code)
			}
			tn, _ := s.Manager().Get("x")

			// check reads every route twice and compares both answers with
			// the from-scratch rendering at the instant the daemon stamped.
			check := func(when string) map[string][]byte {
				t.Helper()
				got := make(map[string][]byte)
				for round := 0; round < 2; round++ {
					for _, route := range readRoutes {
						body := get(t, s, "/tenants/x/"+route)
						at := tn.Now()
						if route == "assessment" {
							at = atOf(t, body)
						}
						if want := fromScratch(t, tn, at)[route]; !bytes.Equal(body, want) {
							t.Fatalf("%s, round %d: GET %s\n got %s\nwant %s", when, round, route, body, want)
						}
						got[route] = body
					}
				}
				return got
			}
			// changed requires every route's body to differ from before.
			changed := func(when string, before map[string][]byte, routes ...string) map[string][]byte {
				t.Helper()
				after := check(when)
				for _, route := range routes {
					if bytes.Equal(before[route], after[route]) {
						t.Fatalf("%s: GET %s still answers %s", when, route, after[route])
					}
				}
				return after
			}

			bodies := check("seeded")
			p := 21.0
			if code := do(t, s, "PATCH", "/tenants/x/replicas/bob", ReplicaPatch{Power: &p}, nil); code != http.StatusNoContent {
				t.Fatalf("set power: %d", code)
			}
			bodies = changed("after set-power", bodies, readRoutes...)
			if code := do(t, s, "PATCH", "/tenants/x/replicas/carol", ReplicaPatch{
				Components: []ComponentSpec{{Class: "operating-system", Name: "netbsd", Version: "10"}},
			}, nil); code != http.StatusNoContent {
				t.Fatalf("migrate: %d", code)
			}
			bodies = changed("after migrate", bodies, readRoutes...)
			if code := do(t, s, "POST", "/tenants/x/replicas", ReplicaSpec{
				ID: "frank", Power: 5, PatchLatency: Duration(time.Hour),
				Components: []ComponentSpec{{Class: "operating-system", Name: "ubuntu", Version: "22.04"}},
			}, nil); code != http.StatusCreated {
				t.Fatalf("join: %d", code)
			}
			bodies = changed("after join", bodies, readRoutes...)
			if code := do(t, s, "DELETE", "/tenants/x/replicas/dave", nil, nil); code != http.StatusNoContent {
				t.Fatalf("leave: %d", code)
			}
			bodies = changed("after leave", bodies, readRoutes...)
			// A disclosure leaves the diversity report as it was.
			if code := do(t, s, "POST", "/tenants/x/vulns", VulnSpec{
				ID: "CVE-2023-0002", Class: "operating-system", Product: "netbsd",
				Disclosed: 0, PatchAt: Duration(100 * time.Hour), Severity: 0.5,
			}, nil); code != http.StatusCreated {
				t.Fatalf("disclose: %d", code)
			}
			bodies = changed("after disclosure", bodies, "assessment", "worst?horizon=720h")

			if !virtual {
				return
			}
			// The clock. CVE-0001 discloses at 10h; frank (1h latency) patches
			// it at 21h: inside [0, 10h) only the stamp moves, across 10h and
			// across 21h the picture does.
			advance := func(to time.Duration) {
				t.Helper()
				if code := do(t, s, "POST", "/tenants/x/advance", AdvanceSpec{To: Duration(to)}, nil); code != http.StatusOK {
					t.Fatalf("advance to %v: %d", to, code)
				}
			}
			memoHits := tn.Monitor.Stats().AssessMemoHits
			advance(9 * time.Hour)
			inside := check("advanced inside the interval")
			for _, route := range []string{"report", "worst?horizon=720h"} {
				if !bytes.Equal(inside[route], bodies[route]) {
					t.Fatalf("GET %s changed on an advance inside the interval", route)
				}
			}
			restamped := bytes.Replace(bodies["assessment"], []byte(`"at":"0s"`), []byte(`"at":"9h0m0s"`), 1)
			if !bytes.Equal(inside["assessment"], restamped) {
				t.Fatalf("advance inside the interval moved more than the stamp:\n got %s\nwant %s", inside["assessment"], restamped)
			}
			if got := tn.Monitor.Stats().AssessMemoHits - memoHits; got != 4 {
				t.Fatalf("4 assessment/report reads inside the interval evaluated %d fault pictures", 4-got)
			}
			advance(10 * time.Hour)
			bodies = changed("advanced across the disclosure", inside, "assessment")
			advance(20*time.Hour + 59*time.Minute)
			bodies = check("advanced up to the close")
			advance(21 * time.Hour)
			changed("advanced across the close", bodies, "assessment")
		})
	}
}

// TestWallClockReadsShareOneEvaluation: two reads of a wall-clock tenant
// 10ms apart differ in the stamp alone, and the second evaluates nothing.
func TestWallClockReadsShareOneEvaluation(t *testing.T) {
	s := NewServer()
	defer s.Close()
	spec := testSpec()
	spec.Virtual = false
	spec.Vulns[0].Disclosed = 0
	if code := do(t, s, "PUT", "/tenants/x", spec, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	tn, _ := s.Manager().Get("x")
	first := get(t, s, "/tenants/x/assessment")
	before := tn.Monitor.Stats()
	time.Sleep(10 * time.Millisecond)
	second := get(t, s, "/tenants/x/assessment")
	after := tn.Monitor.Stats()

	at1, at2 := atOf(t, first), atOf(t, second)
	if at2-at1 < 10*time.Millisecond {
		t.Fatalf("stamps %v then %v, want 10ms apart", at1, at2)
	}
	stamp := func(at time.Duration) []byte { return encodeFresh(t, Duration(at)) }
	if want := bytes.Replace(first, bytes.TrimSpace(stamp(at1)), bytes.TrimSpace(stamp(at2)), 1); !bytes.Equal(second, want) {
		t.Fatalf("second read differs in more than the stamp:\n got %s\nwant %s", second, want)
	}
	if after.Hits != before.Hits+1 || after.AssessMemoHits != before.AssessMemoHits+1 {
		t.Fatalf("second read: stats %+v → %+v, want one more hit and one more memo hit", before, after)
	}
}

// TestStampMatchesEncoder: the re-stamped instant is byte for byte what the
// encoder writes for a Duration, whatever unit the string ends in.
func TestStampMatchesEncoder(t *testing.T) {
	for _, at := range []time.Duration{
		0, 1, 999, 350 * time.Microsecond, 1500 * time.Microsecond, 10 * time.Millisecond,
		time.Second + 1, 90 * time.Minute, 720 * time.Hour, 15*24*time.Hour + 7*time.Nanosecond, -time.Second,
	} {
		want := bytes.TrimSpace(encodeFresh(t, Duration(at)))
		if got := atJSON(at); got != string(want) {
			t.Errorf("atJSON(%d) = %s, encoder writes %s", at, got, want)
		}
	}
}

// TestReadersNeverSeeBodiesOlderThanAcknowledged: while one caller keeps
// raising bob's power, every read that starts after a mutation was
// acknowledged answers with at least that power — on all three routes, kept
// bodies or not. Run under -race.
func TestReadersNeverSeeBodiesOlderThanAcknowledged(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if code := do(t, s, "PUT", "/tenants/x", testSpec(), nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := do(t, s, "POST", "/tenants/x/advance", AdvanceSpec{To: Duration(12 * time.Hour)}, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	// Inside the window the ubuntu fault holds alice (30), bob and carol
	// (10); bob's power is readable off every route.
	const rounds = 300
	fromFault := func(body []byte) float64 {
		var a AssessmentJSON
		_ = json.Unmarshal(body, &a)
		return a.Faults[0].Power - 40
	}
	powerOf := map[string]func(body []byte) float64{
		"assessment":         fromFault,
		"worst?horizon=720h": fromFault,
		"report": func(body []byte) float64 {
			// maxShare = (40+p)/(80+p): the ubuntu share, rising in p.
			var r ReportJSON
			_ = json.Unmarshal(body, &r)
			return (80*r.MaxShare - 40) / (1 - r.MaxShare)
		},
	}
	var acked atomic.Int64
	acked.Store(20)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, route := range readRoutes {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(route string) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					floor := float64(acked.Load())
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("GET", "/tenants/x/"+route, nil))
					if rec.Code != http.StatusOK {
						t.Errorf("GET %s: %d", route, rec.Code)
						return
					}
					if got := powerOf[route](rec.Body.Bytes()); got < floor-1e-6 {
						t.Errorf("GET %s answered bob=%v after bob=%v was acknowledged", route, got, floor)
						return
					}
				}
			}(route)
		}
	}
	for p := 21.0; p < 21+rounds; p++ {
		if code := do(t, s, "PATCH", "/tenants/x/replicas/bob", ReplicaPatch{Power: &p}, nil); code != http.StatusNoContent {
			t.Errorf("set power: %d", code)
			break
		}
		acked.Store(int64(p))
	}
	close(done)
	wg.Wait()
}
