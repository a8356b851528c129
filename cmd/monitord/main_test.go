package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/monitord"
)

// serve starts the daemon's http.Server, as run builds it, around h on a
// loopback listener.
func serve(t *testing.T, h http.Handler, timeout time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newHTTPServer(h, timeout)
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// TestTimeoutClosesOverrunConnection: the reply of a handler slower than
// the budget is never delivered — the client finds its connection closed —
// and a client that stops reading its reply is cut off at the budget, not
// when it pleases.
func TestTimeoutClosesOverrunConnection(t *testing.T) {
	const budget = 50 * time.Millisecond
	writeFailed := make(chan time.Duration, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(3 * budget)
		fmt.Fprintln(w, "too late")
	})
	mux.HandleFunc("GET /big", func(w http.ResponseWriter, _ *http.Request) {
		start := time.Now()
		chunk := make([]byte, 1<<20)
		for {
			// Far more than loopback socket buffers hold: Write blocks
			// on the stalled reader until the deadline fails it.
			if _, err := w.Write(chunk); err != nil {
				writeFailed <- time.Since(start)
				return
			}
		}
	})
	ts := serve(t, mux, budget)

	resp, err := http.Get(ts.URL + "/slow")
	if err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("slow handler answered %d %q past the budget, want a closed connection", resp.StatusCode, body)
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /big HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case took := <-writeFailed:
		if took < budget/2 || took > 20*budget {
			t.Fatalf("stalled reader cut off after %v, want about the %v budget", took, budget)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a reader that never reads pinned its handler past the budget")
	}
}

// TestTimeoutBoundsStalledBody: a client that sends a request's headers and
// then stalls in its body — part of a declared length, or one chunk of a
// chunked body — does not hold the connection past the budget.
func TestTimeoutBoundsStalledBody(t *testing.T) {
	const budget = 100 * time.Millisecond
	svc := monitord.NewServer()
	defer svc.Close()
	if _, err := svc.Manager().Create("acme", monitord.TenantSpec{Virtual: true}); err != nil {
		t.Fatal(err)
	}
	ts := serve(t, svc, budget)
	for name, head := range map[string]string{
		"content-length": "Content-Length: 100\r\n\r\n" + `{"id":"r1",`,
		"chunked":        "Transfer-Encoding: chunked\r\n\r\nb\r\n" + `{"id":"r1",` + "\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			start := time.Now()
			if _, err := io.WriteString(conn, "POST /tenants/acme/replicas HTTP/1.1\r\nHost: x\r\n"+head); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(start.Add(50 * budget))
			// Whatever reply there is, the server must then close.
			if _, err := io.ReadAll(conn); err != nil {
				t.Fatalf("connection still open %v after a stalled body: %v", time.Since(start).Round(time.Millisecond), err)
			}
			if took := time.Since(start); took < budget/2 {
				t.Fatalf("closed after %v, before the %v budget", took, budget)
			}
		})
	}
}

// TestTimeoutZeroBoundsNothing: -timeout 0 sets no deadline at all.
func TestTimeoutZeroBoundsNothing(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(60 * time.Millisecond)
		fmt.Fprintln(w, "done")
	})
	if srv := newHTTPServer(slow, 0); srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, ReadTimeout = %v with -timeout 0", srv.WriteTimeout, srv.ReadTimeout)
	}
	ts := serve(t, slow, 0)
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK || string(body) != "done\n" {
		t.Fatalf("unbounded slow handler: %d %q", resp.StatusCode, body)
	}
}

// TestWatchOutlivesTimeout: the SSE watch stream clears the deadline every
// other reply is bound by and keeps flushing events long past the budget,
// with ordinary routes answering beside it.
func TestWatchOutlivesTimeout(t *testing.T) {
	const budget = 40 * time.Millisecond
	svc := monitord.NewServer()
	defer svc.Close()
	tenant, err := svc.Manager().Create("acme", monitord.TenantSpec{
		Virtual:       true,
		WatchInterval: monitord.Duration(time.Hour),
		Replicas: []monitord.ReplicaSpec{{
			ID: "r1", Power: 1,
			Components: []monitord.ComponentSpec{{Class: "operating-system", Name: "debian", Version: "12"}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := serve(t, svc, budget)

	resp, err := http.Get(ts.URL + "/tenants/acme/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events, done := make(chan string), make(chan struct{})
	defer close(done)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
				select {
				case events <- id:
				case <-done:
					return
				}
			}
		}
	}()
	next := func(want time.Duration) {
		t.Helper()
		select {
		case id, ok := <-events:
			if !ok {
				t.Fatalf("watch stream ended before the event at %v", want)
			}
			if id != fmt.Sprint(want.Nanoseconds()) {
				t.Fatalf("event id %s, want %d", id, want.Nanoseconds())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no event at %v", want)
		}
	}
	next(0)
	for tick := 1; tick <= 3; tick++ {
		time.Sleep(2 * budget) // each event is written well past the budget
		if _, err := tenant.Advance(time.Hour); err != nil {
			t.Fatal(err)
		}
		next(time.Duration(tick) * time.Hour)
	}

	r2, err := http.Get(ts.URL + "/tenants/acme/assessment")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("assessment beside a live stream: %d", r2.StatusCode)
	}
}

// TestRunServesLoadAndShutsDown drives run as main does, on a loopback
// listener: a few hundred wall-clock tenants, workers mixing reads with
// power changes, migrations and transient join + leave, and SSE watchers
// across the fleet. Every request must answer 2xx at the first attempt,
// every watcher must receive an event, and cancelling the context must make
// run return nil within the drain with every stream ended cleanly.
func TestRunServesLoadAndShutsDown(t *testing.T) {
	const (
		tenants  = 300
		replicas = 4
		workers  = 8
		requests = 200 // per worker
		watchers = 16
		drain    = 5 * time.Second
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, ln, drain, 10*time.Second, "") }()

	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers + watchers}}
	defer client.CloseIdleConnections()
	// call sends one request, once: a loopback daemon has no transient
	// failure to forgive.
	call := func(method, path string, body any) bool {
		var blob io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				t.Error(err)
				return false
			}
			blob = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, base+path, blob)
		if err != nil {
			t.Error(err)
			return false
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return false
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Errorf("%s %s: %d %s", method, path, resp.StatusCode, reply)
			return false
		}
		return true
	}
	tenant := func(i int) string { return fmt.Sprintf("/tenants/t%03d", i) }
	inParallel := func(n int, f func(w int)) {
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() { defer wg.Done(); f(w) }()
		}
		wg.Wait()
	}

	// Alternating OS stacks, one vulnerability open for the whole run.
	oses := []string{"ubuntu", "freebsd", "openbsd"}
	spec := monitord.TenantSpec{WatchInterval: monitord.Duration(20 * time.Millisecond)}
	for r := 0; r < replicas; r++ {
		spec.Replicas = append(spec.Replicas, monitord.ReplicaSpec{
			ID:           fmt.Sprintf("r%d", r),
			Components:   []monitord.ComponentSpec{{Class: "operating-system", Name: oses[r%len(oses)], Version: "1"}},
			Power:        float64(10 + r),
			PatchLatency: monitord.Duration(24 * time.Hour),
		})
	}
	spec.Vulns = []monitord.VulnSpec{{
		ID: "CVE-LOAD-0001", Class: "operating-system", Product: oses[0], Version: "1",
		PatchAt: monitord.Duration(1000 * time.Hour), Severity: 1,
	}}
	inParallel(workers, func(w int) {
		for i := w; i < tenants; i += workers {
			call("PUT", tenant(i), spec)
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	// Each watcher reports its first event, then reads until the stream
	// ends, and reports how it ended.
	firstEvent := make(chan int, watchers)
	streamEnd := make(chan error, watchers)
	for w := 0; w < watchers; w++ {
		resp, err := client.Get(base + tenant(w*tenants/watchers) + "/watch")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("watch %d: %s", w, resp.Status)
		}
		go func() {
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(nil, 1<<20)
			events := 0
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "event:") {
					if events++; events == 1 {
						firstEvent <- w
					}
				}
			}
			streamEnd <- sc.Err()
		}()
	}

	inParallel(workers, func(w int) {
		rng := rand.New(rand.NewSource(int64(w)))
		for n := 0; n < requests; n++ {
			tn := tenant(rng.Intn(tenants))
			replica := fmt.Sprintf("%s/replicas/r%d", tn, rng.Intn(replicas))
			switch p := rng.Intn(100); {
			case p < 45:
				call("GET", tn+"/assessment", nil)
			case p < 60:
				call("GET", tn+"/report", nil)
			case p < 70:
				call("GET", tn+"/worst?horizon=24h", nil)
			case p < 82:
				power := 1 + rng.Float64()*50
				call("PATCH", replica, monitord.ReplicaPatch{Power: &power})
			case p < 92:
				name := []string{"ubuntu", "freebsd", "openbsd", "netbsd"}[rng.Intn(4)]
				call("PATCH", replica, monitord.ReplicaPatch{
					Components: []monitord.ComponentSpec{{Class: "operating-system", Name: name, Version: "1"}},
				})
			default:
				// A worker-unique id: concurrent workers never collide on
				// membership.
				id := fmt.Sprintf("w%d-%d", w, n)
				if call("POST", tn+"/replicas", monitord.ReplicaSpec{
					ID: id, Power: 1,
					Components: []monitord.ComponentSpec{{Class: "operating-system", Name: "netbsd", Version: "1"}},
				}) {
					call("DELETE", tn+"/replicas/"+id, nil)
				}
			}
		}
	})

	for seen := 0; seen < watchers; seen++ {
		select {
		case <-firstEvent:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d watchers received no event", watchers-seen, watchers)
		}
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(drain + 5*time.Second):
		t.Fatalf("run still serving %v after cancel", drain+5*time.Second)
	}
	for ended := 0; ended < watchers; ended++ {
		select {
		case err := <-streamEnd:
			if err != nil {
				t.Errorf("watch stream ended with %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d watch streams still open after run returned", watchers-ended, watchers)
		}
	}
}

// TestShutdownHangsUpUnusedConnection: a connection dialed but never used
// does not hold a graceful shutdown — run returns nil well inside a drain
// shorter than the 5 s net/http grants a new connection — and a request
// sent on it once shutdown has begun gets no reply: the connection is
// closed.
func TestShutdownHangsUpUnusedConnection(t *testing.T) {
	const drain = 500 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, ln, drain, 10*time.Second, "") }()

	stray, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	// The server accepts in dial order, so once a later connection is
	// answered, the stray one is accepted and waiting for its request.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run with an unused connection open: %v", err)
		}
	case <-time.After(drain + 5*time.Second):
		t.Fatal("run still serving after cancel")
	}
	_ = stray.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(stray, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		return // the server's hang-up already reached the writer
	}
	reply, err := io.ReadAll(stray)
	if len(reply) > 0 {
		t.Fatalf("request on the unused connection answered after shutdown: %q", reply)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("unused connection still open after run returned")
	}
}

// TestCPUProfileWrittenAtShutdown: with -cpuprofile, run profiles what it
// serves and writes the profile once it has shut down.
func TestCPUProfileWrittenAtShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cpu.prof")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, ln, time.Second, 10*time.Second, path) }()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < 20; i++ {
		resp, err := client.Get("http://" + ln.Addr().String() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run still serving after cancel")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile after shutdown: %v, %v", fi, err)
	}
}
