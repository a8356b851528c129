package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestTimeoutZeroBoundsNothing: -timeout 0 sets no deadline at all.
func TestTimeoutZeroBoundsNothing(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(60 * time.Millisecond)
		fmt.Fprintln(w, "done")
	})
	if got := newHTTPServer(slow, 0).WriteTimeout; got != 0 {
		t.Fatalf("WriteTimeout = %v with -timeout 0", got)
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
