package monitord_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/monitord"
)

// The assessment service from a client's seat: the zero-day lifecycle
// core's Monitor.Assess example steps in-process, streamed entirely
// through the HTTP/JSON API — create a tenant, seed its fleet, follow the
// SSE watch stream, and drive virtual time forward with POST …/advance
// until the vulnerability window opens and closes. The tenant's hub emits
// one event per 6 h boundary the clock crosses.
//
// The service is hosted in-process on a loopback listener so the example
// is self-contained and deterministic (the tenant runs on a virtual
// clock); point base at a real daemon (`go run ./cmd/monitord`) and the
// same requests work unchanged.
func ExampleServer() {
	// Host the service like cmd/monitord does, on a loopback listener.
	svc := monitord.NewServer()
	defer svc.Close()
	ts := httptest.NewServer(svc)
	defer ts.Close()
	base := ts.URL

	// do issues one JSON request against the service, fails the example
	// on any non-2xx, and decodes the response into out when non-nil.
	do := func(method, path, body string, out any) {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			log.Fatalf("%s %s: %s: %s", method, path, resp.Status, buf.String())
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				log.Fatal(err)
			}
		}
	}

	// PUT /tenants/fleet — a virtual tenant seeded with the quickstart
	// fleet and the ubuntu zero-day (disclosed t=10h, patch published
	// t=20h, 24h per-replica patch latency → window closes at t=44h).
	do("PUT", "/tenants/fleet", `{
	  "virtual": true,
	  "watchInterval": "6h",
	  "replicas": [
	    {"id": "alice", "power": 30, "patchLatency": "24h",
	     "components": [{"class": "operating-system", "name": "ubuntu", "version": "22.04"}]},
	    {"id": "bob",   "power": 20, "patchLatency": "24h",
	     "components": [{"class": "operating-system", "name": "ubuntu", "version": "22.04"}]},
	    {"id": "carol", "power": 10, "patchLatency": "24h",
	     "components": [{"class": "operating-system", "name": "ubuntu", "version": "22.04"}]},
	    {"id": "dave",  "power": 25, "patchLatency": "24h",
	     "components": [{"class": "operating-system", "name": "freebsd", "version": "13"}]},
	    {"id": "erin",  "power": 15, "patchLatency": "24h",
	     "components": [{"class": "operating-system", "name": "openbsd", "version": "7"}]}
	  ],
	  "vulns": [
	    {"id": "CVE-2023-0001", "class": "operating-system", "product": "ubuntu",
	     "version": "22.04", "disclosed": "10h", "patchAt": "20h", "severity": 1}
	  ]
	}`, nil)
	fmt.Println("created tenant 'fleet': 5 replicas, 1 disclosed vulnerability")

	// GET …/assessment — a point-in-time read at the tenant's clock (t=0).
	var a monitord.AssessmentJSON
	do("GET", "/tenants/fleet/assessment", "", &a)
	fmt.Printf("t=%-6v safe=%-5v entropy=%.3f bits\n", time.Duration(a.At), a.Safe, a.Diversity.Entropy)

	// GET …/worst?horizon=72h — the exact worst instant over the horizon,
	// before it happens: the monitor knows the window will open.
	do("GET", "/tenants/fleet/worst?horizon=72h", "", &a)
	fmt.Printf("worst over 72h: t=%v Σf=%.2f safe=%v (ubuntu carries 60%% > 1/3)\n\n",
		time.Duration(a.At), a.TotalFraction, a.Safe)

	// GET …/watch — the SSE stream. Events arrive as the virtual clock
	// crosses 6h boundaries; the driver below advances it.
	events := make(chan monitord.AssessmentJSON)
	watchResp, err := http.Get(base + "/tenants/fleet/watch")
	if err != nil {
		log.Fatal(err)
	}
	defer watchResp.Body.Close()
	go func() {
		defer close(events)
		sc := bufio.NewScanner(watchResp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev monitord.AssessmentJSON
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				log.Fatal(err)
			}
			events <- ev
		}
	}()

	// POST …/advance in 6h steps; print each emission the stream delivers.
	fmt.Println("watching over SSE, advancing 6h per step:")
	for report := range events {
		status := "SAFE  "
		if !report.Safe {
			status = "UNSAFE"
		}
		fmt.Printf("t=%-6v %s Σf=%.2f\n", time.Duration(report.At), status, report.TotalFraction)
		if time.Duration(report.At) >= 48*time.Hour { // past the window close at 44h
			break
		}
		do("POST", "/tenants/fleet/advance", `{"by": "6h"}`, nil)
	}

	// GET /tenants/fleet — the cache counters prove all of the above
	// (watch ticks + point reads) recomputed only when something changed.
	var info monitord.TenantInfo
	do("GET", "/tenants/fleet", "", &info)
	fmt.Printf("\ncache: %d rebuilds, %d hits — %d watch events shared one stream\n",
		info.Cache.Rebuilds, info.Cache.Hits, info.WatchEvents)

	// DELETE the tenant: the SSE stream ends cleanly.
	do("DELETE", "/tenants/fleet", "", nil)
	for range events {
	}
	fmt.Println("tenant deleted; watch stream closed cleanly")
	// Output:
	// created tenant 'fleet': 5 replicas, 1 disclosed vulnerability
	// t=0s     safe=true  entropy=1.353 bits
	// worst over 72h: t=10h0m0s Σf=0.60 safe=false (ubuntu carries 60% > 1/3)
	//
	// watching over SSE, advancing 6h per step:
	// t=0s     SAFE   Σf=0.00
	// t=6h0m0s SAFE   Σf=0.00
	// t=12h0m0s UNSAFE Σf=0.60
	// t=18h0m0s UNSAFE Σf=0.60
	// t=24h0m0s UNSAFE Σf=0.60
	// t=30h0m0s UNSAFE Σf=0.60
	// t=36h0m0s UNSAFE Σf=0.60
	// t=42h0m0s UNSAFE Σf=0.60
	// t=48h0m0s SAFE   Σf=0.00
	//
	// cache: 1 rebuilds, 10 hits — 9 watch events shared one stream
	// tenant deleted; watch stream closed cleanly
}
