package monitord

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testSpec is the examples/watch fleet as a tenant seed: 60% of power on
// ubuntu with a zero-day disclosed at t=10h, patched at t=20h, and a 24h
// replica patch latency — so the system is unsafe on [10h, 44h).
func testSpec() TenantSpec {
	replica := func(id, os string, power float64) ReplicaSpec {
		return ReplicaSpec{
			ID:           id,
			Components:   []ComponentSpec{{Class: "operating-system", Name: os, Version: "22.04"}},
			Power:        power,
			PatchLatency: Duration(24 * time.Hour),
		}
	}
	return TenantSpec{
		Virtual:       true,
		WatchInterval: Duration(6 * time.Hour),
		Replicas: []ReplicaSpec{
			replica("alice", "ubuntu", 30),
			replica("bob", "ubuntu", 20),
			replica("carol", "ubuntu", 10),
			replica("dave", "freebsd", 25),
			replica("erin", "openbsd", 15),
		},
		Vulns: []VulnSpec{{
			ID: "CVE-2023-0001", Class: "operating-system", Product: "ubuntu", Version: "22.04",
			Disclosed: Duration(10 * time.Hour), PatchAt: Duration(20 * time.Hour), Severity: 1,
		}},
	}
}

// do issues one JSON request against the handler and decodes the response
// into out (when non-nil), returning the status code.
func do(t *testing.T, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestTenantLifecycle(t *testing.T) {
	s := NewServer()
	defer s.Close()

	var info TenantInfo
	if code := do(t, s, "PUT", "/tenants/prod", testSpec(), &info); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if info.Replicas != 5 || info.Vulns != 1 || !info.Virtual || info.Substrate != "bft" {
		t.Fatalf("created info = %+v", info)
	}
	if code := do(t, s, "PUT", "/tenants/prod", testSpec(), nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", code)
	}
	// Default spec from an empty body.
	if code := do(t, s, "PUT", "/tenants/staging", nil, &info); code != http.StatusCreated {
		t.Fatalf("default create: %d", code)
	}
	if info.Virtual || info.Replicas != 0 {
		t.Fatalf("default tenant = %+v", info)
	}
	var list []TenantInfo
	if code := do(t, s, "GET", "/tenants", nil, &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list: %d, %d tenants", code, len(list))
	}
	if list[0].Name != "prod" || list[1].Name != "staging" {
		t.Fatalf("list order: %s, %s", list[0].Name, list[1].Name)
	}
	if code := do(t, s, "DELETE", "/tenants/staging", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := do(t, s, "GET", "/tenants/staging", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get deleted: %d", code)
	}
	if code := do(t, s, "DELETE", "/tenants/staging", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d", code)
	}
	// Invalid names and specs are rejected.
	if code := do(t, s, "PUT", "/tenants/bad%2Fname", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad name: %d", code)
	}
	if code := do(t, s, "PUT", "/tenants/badsub", TenantSpec{Substrate: "raft"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown substrate: %d", code)
	}
}

func TestMutationAndAssessmentEndpoints(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if code := do(t, s, "PUT", "/tenants/x", testSpec(), nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}

	// Before disclosure: safe, 3 configurations.
	var a AssessmentJSON
	if code := do(t, s, "GET", "/tenants/x/assessment", nil, &a); code != http.StatusOK {
		t.Fatalf("assessment: %d", code)
	}
	if !a.Safe || a.Diversity.Support != 3 || a.At != 0 {
		t.Fatalf("t=0 assessment = %+v", a)
	}

	// Advance into the vulnerability window: 60% ubuntu > 1/3 → unsafe.
	var now map[string]Duration
	if code := do(t, s, "POST", "/tenants/x/advance", AdvanceSpec{To: Duration(12 * time.Hour)}, &now); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	if now["now"] != Duration(12*time.Hour) {
		t.Fatalf("advanced to %v", now["now"])
	}
	if do(t, s, "GET", "/tenants/x/assessment", nil, &a); a.Safe || a.TotalFraction != 0.6 {
		t.Fatalf("in-window assessment = %+v", a)
	}
	if len(a.Faults) != 1 || a.Faults[0].Vuln != "CVE-2023-0001" || len(a.Faults[0].Compromised) != 3 {
		t.Fatalf("faults = %+v", a.Faults)
	}

	// Worst window over the full horizon finds the same striking moment.
	var worst AssessmentJSON
	if code := do(t, s, "GET", "/tenants/x/worst?horizon=720h", nil, &worst); code != http.StatusOK {
		t.Fatalf("worst: %d", code)
	}
	if worst.Safe || worst.TotalFraction != 0.6 {
		t.Fatalf("worst = %+v", worst)
	}
	if code := do(t, s, "GET", "/tenants/x/worst?horizon=nope", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad horizon: %d", code)
	}

	// Mutations: leave a compromised replica, cap another's power, migrate
	// the third off ubuntu — the window closes without any patch event.
	if code := do(t, s, "DELETE", "/tenants/x/replicas/alice", nil, nil); code != http.StatusNoContent {
		t.Fatalf("leave: %d", code)
	}
	p := 1.0
	if code := do(t, s, "PATCH", "/tenants/x/replicas/bob", ReplicaPatch{Power: &p}, nil); code != http.StatusNoContent {
		t.Fatalf("set power: %d", code)
	}
	if code := do(t, s, "PATCH", "/tenants/x/replicas/carol", ReplicaPatch{
		Components: []ComponentSpec{{Class: "operating-system", Name: "netbsd", Version: "10"}},
	}, nil); code != http.StatusNoContent {
		t.Fatalf("migrate: %d", code)
	}
	if do(t, s, "GET", "/tenants/x/assessment", nil, &a); !a.Safe {
		t.Fatalf("after mitigation still unsafe: %+v", a)
	}
	// A fresh disclosure through the API reopens exposure for netbsd.
	if code := do(t, s, "POST", "/tenants/x/vulns", VulnSpec{
		ID: "CVE-2023-0002", Class: "operating-system", Product: "netbsd",
		Disclosed: Duration(11 * time.Hour), PatchAt: Duration(100 * time.Hour), Severity: 1,
	}, nil); code != http.StatusCreated {
		t.Fatalf("disclose: %d", code)
	}
	// Two faults now: bob (power-capped, still on ubuntu inside CVE-0001's
	// open window) and carol (freshly exposed on netbsd). Faults sort by
	// catalog ID.
	if do(t, s, "GET", "/tenants/x/assessment", nil, &a); len(a.Faults) != 2 ||
		a.Faults[0].Vuln != "CVE-2023-0001" || a.Faults[1].Vuln != "CVE-2023-0002" {
		t.Fatalf("post-disclosure faults = %+v", a.Faults)
	}

	// Error paths.
	if code := do(t, s, "DELETE", "/tenants/x/replicas/ghost", nil, nil); code != http.StatusNotFound {
		t.Fatalf("leave unknown: %d", code)
	}
	if code := do(t, s, "PATCH", "/tenants/x/replicas/bob", ReplicaPatch{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty patch: %d", code)
	}
	if code := do(t, s, "POST", "/tenants/x/replicas", ReplicaSpec{ID: "bob", Power: 1}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate join: %d", code)
	}
	if code := do(t, s, "POST", "/tenants/x/replicas", ReplicaSpec{
		ID: "z", Components: []ComponentSpec{{Class: "mainframe", Name: "x"}}, Power: 1,
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown class: %d", code)
	}
	if code := do(t, s, "POST", "/tenants/x/advance", AdvanceSpec{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty advance: %d", code)
	}
	// Strict bodies: each of these is accepted without its tail (trailing
	// whitespace included) and a 400 with it.
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/tenants/x/replicas", `{"id":"strict","power":1,"components":[{"class":"operating-system","name":"plan9"}]}`},
		{"PATCH", "/tenants/x/replicas/strict", `{"power":2}`},
		{"POST", "/tenants/x/vulns", `{"id":"CVE-strict","class":"operating-system","product":"plan9","disclosed":"1h","patchAt":"2h","severity":1}`},
		{"POST", "/tenants/x/advance", `{"by":"1s"}`},
		{"PUT", "/tenants/strict", `{"virtual":true}`},
	} {
		for _, tail := range []string{" garbage", `{}`, " 1", "]"} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body+tail)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %s with %q after the value: %d, want 400", c.method, c.path, tail, rec.Code)
			}
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body+" \n\t")))
		if rec.Code/100 != 2 {
			t.Fatalf("%s %s with trailing whitespace: %d %s", c.method, c.path, rec.Code, rec.Body)
		}
	}
	// Wall tenants reject advance.
	if code := do(t, s, "PUT", "/tenants/wall", nil, nil); code != http.StatusCreated {
		t.Fatalf("wall create: %d", code)
	}
	if code := do(t, s, "POST", "/tenants/wall/advance", AdvanceSpec{By: Duration(time.Hour)}, nil); code != http.StatusConflict {
		t.Fatalf("wall advance: %d", code)
	}
}

// TestAdvanceRejectsNegativeBy: a negative by is a 400 that leaves the clock
// where it was, as GET worst answers a non-positive horizon; a to in the
// past stays the monotone no-op it is documented as.
func TestAdvanceRejectsNegativeBy(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if code := do(t, s, "PUT", "/tenants/x", TenantSpec{Virtual: true}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var now map[string]Duration
	if code := do(t, s, "POST", "/tenants/x/advance", AdvanceSpec{To: Duration(2 * time.Hour)}, &now); code != http.StatusOK {
		t.Fatalf("advance to 2h: %d", code)
	}
	for _, body := range []string{`{"by":"-1h"}`, `{"by":-1}`} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/tenants/x/advance", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("advance %s: %d %s, want 400", body, rec.Code, rec.Body)
		}
	}
	if code := do(t, s, "POST", "/tenants/x/advance", AdvanceSpec{To: Duration(time.Hour)}, &now); code != http.StatusOK || now["now"] != Duration(2*time.Hour) {
		t.Fatalf("advance to 1h after 2h: %d, now %v, want 200 at 2h", code, now["now"])
	}
}

// TestOverflowingPowerIs422: two joins of finite power whose sum is not
// finite leave the tenant unassessable — 422 on the read routes, as for
// every assess error — rather than safe at a compromised fraction of 0.
func TestOverflowingPowerIs422(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if code := do(t, s, "PUT", "/tenants/x", TenantSpec{Virtual: true, Vulns: []VulnSpec{{
		ID: "CVE-1", Class: "operating-system", Product: "a", Version: "1",
		PatchAt: Duration(1000 * time.Hour), Severity: 1,
	}}}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for _, os := range []string{"a", "b"} {
		if code := do(t, s, "POST", "/tenants/x/replicas", ReplicaSpec{
			ID: os, Power: 1.7e308, Components: []ComponentSpec{{Class: "operating-system", Name: os, Version: "1"}},
		}, nil); code != http.StatusCreated {
			t.Fatalf("join %s: %d", os, code)
		}
	}
	if code := do(t, s, "POST", "/tenants/x/advance", AdvanceSpec{By: Duration(time.Hour)}, nil); code != http.StatusOK {
		t.Fatalf("advance: %d", code)
	}
	for _, route := range readRoutes {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/tenants/x/"+route, nil))
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("GET %s: %d %s, want 422", route, rec.Code, rec.Body)
		}
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	event string
	data  string
}

// readSSE parses frames from an event-stream body until it closes or n
// frames arrived.
func readSSE(t *testing.T, body io.Reader, n int, out chan<- sseEvent) {
	t.Helper()
	sc := bufio.NewScanner(body)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "" && ev.data != "":
			out <- ev
			n--
			if n == 0 {
				return
			}
			ev = sseEvent{}
		}
	}
}

// TestWatchSSE drives a virtual tenant's clock and asserts the SSE stream
// delivers the initial assessment plus one per crossed interval boundary,
// then ends cleanly when the tenant is deleted.
func TestWatchSSE(t *testing.T) {
	s := NewServer()
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	client := srv.Client()
	put, err := http.NewRequest("PUT", srv.URL+"/tenants/w", bytes.NewReader(mustJSON(t, testSpec())))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := client.Do(put); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %v %v", err, resp)
	}

	resp, err := client.Get(srv.URL + "/tenants/w/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := make(chan sseEvent, 16)
	go readSSE(t, resp.Body, 4, events)

	// The immediate first assessment at t=0.
	first := nextEvent(t, events)
	var a AssessmentJSON
	if err := json.Unmarshal([]byte(first.data), &a); err != nil {
		t.Fatalf("bad event data %q: %v", first.data, err)
	}
	if first.event != "assessment" || a.At != 0 || !a.Safe || a.Tenant != "w" {
		t.Fatalf("first event = %s %+v", first.event, a)
	}

	// Wait until the hub's watcher is attached, then advance 18h = three
	// 6h boundaries → exactly three more emissions, the last two unsafe.
	tenant, _ := s.Manager().Get("w")
	waitFor(t, func() bool { return tenant.Hub().subscribers() == 1 })
	advance := func(d time.Duration) {
		body := bytes.NewReader(mustJSON(t, AdvanceSpec{By: Duration(d)}))
		resp, err := client.Post(srv.URL+"/tenants/w/advance", "application/json", body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("advance: %v %v", err, resp)
		}
		resp.Body.Close()
	}
	advance(18 * time.Hour)
	wantSafe := map[time.Duration]bool{6 * time.Hour: true, 12 * time.Hour: false, 18 * time.Hour: false}
	for i := 0; i < 3; i++ {
		ev := nextEvent(t, events)
		if err := json.Unmarshal([]byte(ev.data), &a); err != nil {
			t.Fatalf("bad event data %q: %v", ev.data, err)
		}
		safe, ok := wantSafe[time.Duration(a.At)]
		if !ok || a.Safe != safe {
			t.Fatalf("event %d: at=%v safe=%v", i, time.Duration(a.At), a.Safe)
		}
		delete(wantSafe, time.Duration(a.At))
	}

	// Deleting the tenant ends the stream: the body reaches EOF.
	req, _ := http.NewRequest("DELETE", srv.URL+"/tenants/w", nil)
	if resp, err := client.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %v", err, resp)
	}
	deadline := time.After(5 * time.Second)
	buf := make([]byte, 256)
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Logf("stream ended with %v", err)
		}
	case <-deadline:
		t.Fatal("stream did not end after tenant delete")
	}
}

// TestCloseEndsStreamsAndRejectsRequests: Server.Close terminates live
// SSE connections (the daemon's drain step) and flips the service to 503.
func TestCloseEndsStreamsAndRejectsRequests(t *testing.T) {
	s := NewServer()
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := srv.Client()

	req, _ := http.NewRequest("PUT", srv.URL+"/tenants/w", bytes.NewReader(mustJSON(t, testSpec())))
	if resp, err := client.Do(req); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %v %v", err, resp)
	}
	resp, err := client.Get(srv.URL + "/tenants/w/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan sseEvent, 4)
	go readSSE(t, resp.Body, 1, events)
	nextEvent(t, events) // stream is live

	s.Close()
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, resp.Body)
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("SSE stream survived Close")
	}
	if code := do(t, s, "GET", "/healthz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close request: %d", code)
	}
}

func TestStatsAggregation(t *testing.T) {
	s := NewServer()
	defer s.Close()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		if code := do(t, s, "PUT", "/tenants/"+name, testSpec(), nil); code != http.StatusCreated {
			t.Fatalf("create %s: %d", name, code)
		}
		if code := do(t, s, "GET", "/tenants/"+name+"/assessment", nil, nil); code != http.StatusOK {
			t.Fatalf("assess %s: %d", name, code)
		}
	}
	var st ServerStats
	if code := do(t, s, "GET", "/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Tenants != 3 || st.Replicas != 15 || st.CacheRebuilds != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CacheDeltaApplies != 0 {
		t.Fatalf("delta-applies before any churn: %+v", st)
	}
	// Churn one tenant and re-assess: the mutation lands as a delta-apply,
	// not another rebuild, and the aggregate surfaces it.
	p := 7.0
	if code := do(t, s, "PATCH", "/tenants/t0/replicas/bob", ReplicaPatch{Power: &p}, nil); code != http.StatusNoContent {
		t.Fatalf("set power: %d", code)
	}
	if code := do(t, s, "GET", "/tenants/t0/assessment", nil, nil); code != http.StatusOK {
		t.Fatalf("re-assess t0: %d", code)
	}
	if code := do(t, s, "GET", "/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.CacheRebuilds != 3 || st.CacheDeltaApplies != 1 {
		t.Fatalf("stats after churn = %+v, want 3 rebuilds / 1 delta-apply", st)
	}
	// Reads that find state and interval unchanged evaluate nothing; the
	// tenant and the aggregate both say how many.
	if st.AssessMemoHits != 0 {
		t.Fatalf("memo hits before any repeated read: %+v", st)
	}
	for _, path := range []string{"/tenants/t0/assessment", "/tenants/t0/report", "/tenants/t1/assessment"} {
		if code := do(t, s, "GET", path, nil, nil); code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, code)
		}
	}
	var info TenantInfo
	if code := do(t, s, "GET", "/tenants/t0", nil, &info); code != http.StatusOK || info.Cache.AssessMemoHits != 2 {
		t.Fatalf("tenant t0: %d, cache %+v, want 2 memo hits", code, info.Cache)
	}
	if code := do(t, s, "GET", "/stats", nil, &st); code != http.StatusOK || st.AssessMemoHits != 3 || st.CacheHits != 3 {
		t.Fatalf("stats after repeated reads: %d %+v, want 3 hits, all 3 memo hits", code, st)
	}
	// Worst-window sweeps surface too: one per tenant asked, none for the
	// memoised repeat.
	if st.WorstSweeps != 0 {
		t.Fatalf("worst sweeps before any worst request: %+v", st)
	}
	for _, path := range []string{"/tenants/t0/worst", "/tenants/t0/worst", "/tenants/t1/worst"} {
		if code := do(t, s, "GET", path, nil, nil); code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, code)
		}
	}
	if code := do(t, s, "GET", "/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.WorstSweeps != 2 || st.WorstEvaluated == 0 || st.WorstEvaluated > st.WorstInstants {
		t.Fatalf("stats after worst requests = %+v, want 2 sweeps", st)
	}
}

// TestStatsCountSlowSubscriberDrops: a watch subscriber that never drains
// its channel fills the per-subscriber buffer, the hub's non-blocking
// broadcast starts dropping, and the drops surface on /stats — the
// counter an operator alarms on to find stuck consumers.
func TestStatsCountSlowSubscriberDrops(t *testing.T) {
	s := NewServer()
	defer s.Close()
	spec := testSpec()
	spec.WatchInterval = Duration(time.Hour)
	if code := do(t, s, "PUT", "/tenants/slow", spec, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	tenant, ok := s.Manager().Get("slow")
	if !ok {
		t.Fatal("tenant vanished")
	}

	// Subscribe and never read: the buffer absorbs the first
	// subscriberBuffer emissions, everything after is a drop.
	id, _, err := tenant.Hub().subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer tenant.Hub().unsubscribe(id)
	waitFor(t, func() bool { ev, _ := tenant.Hub().stats(); return ev >= 1 })

	// Pace the clock one watch tick at a time, waiting for each broadcast
	// to land, until the hub has demonstrably dropped.
	for i := 0; i < subscriberBuffer+4; i++ {
		if _, err := tenant.Advance(time.Hour); err != nil {
			t.Fatal(err)
		}
		want := uint64(i + 2) // initial emission + one per tick
		waitFor(t, func() bool { ev, _ := tenant.Hub().stats(); return ev >= want })
	}
	waitFor(t, func() bool { _, dropped := tenant.Hub().stats(); return dropped > 0 })

	var st ServerStats
	if code := do(t, s, "GET", "/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Watchers != 1 {
		t.Fatalf("watchers = %d, want the one stuck subscriber", st.Watchers)
	}
	if st.WatchDropped == 0 {
		t.Fatalf("stats show no drops after overflowing the buffer: %+v", st)
	}
	if st.WatchEvents <= uint64(subscriberBuffer) {
		t.Fatalf("events %d never exceeded the buffer %d", st.WatchEvents, subscriberBuffer)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func nextEvent(t *testing.T, events <-chan sseEvent) sseEvent {
	t.Helper()
	select {
	case ev := <-events:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for SSE event")
		return sseEvent{}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
