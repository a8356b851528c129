package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/monitord"
)

// doer sends one request to a monitord — a daemon over loopback, or a
// Server called in-process — and returns the status and the drained body.
type doer func(req *http.Request) (status int, body []byte, err error)

// httpDoer is one caller's connection to a daemon: one keep-alive
// connection, as a registry feed or a dashboard holds.
func httpDoer() doer {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return func(req *http.Request) (int, []byte, error) {
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body, err
	}
}

// inProcess calls a Server's handler directly, with no socket.
func inProcess(srv http.Handler) doer {
	return func(req *http.Request) (int, []byte, error) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// jsonRequest builds a request whose body, if any, is body as JSON.
func jsonRequest(method, url string, body any) (*http.Request, error) {
	if body == nil {
		return http.NewRequest(method, url, nil)
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return http.NewRequest(method, url, bytes.NewReader(b))
}

// send issues a JSON request and requires a 2xx answer.
func send(do doer, method, url string, body any) ([]byte, error) {
	req, err := jsonRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	status, out, err := do(req)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, status, out)
	}
	return out, nil
}

func assessmentURL(base string, t int) string {
	return base + "/tenants/" + tenantName(t) + "/assessment"
}

func worstURL(base string, t int) string {
	return base + "/tenants/" + tenantName(t) + "/worst?horizon=" + worstHorizon.String()
}

// createTenant creates tenant t from spec, moves its clock to tenantNow
// and warms both read paths, so the monitor's one full rebuild and the
// first worst-window sweep happen in set-up, not in the timed phase.
func createTenant(do doer, base string, t int, spec monitord.TenantSpec) error {
	url := base + "/tenants/" + tenantName(t)
	if _, err := send(do, http.MethodPut, url, spec); err != nil {
		return err
	}
	if _, err := send(do, http.MethodPost, url+"/advance", monitord.AdvanceSpec{To: monitord.Duration(tenantNow)}); err != nil {
		return err
	}
	if _, err := send(do, http.MethodGet, assessmentURL(base, t), nil); err != nil {
		return err
	}
	_, err := send(do, http.MethodGet, worstURL(base, t), nil)
	return err
}

// setUpDaemon starts a daemon and fills it with the model's tenants.
func setUpDaemon(e env, m *model, args ...string) (*daemon, error) {
	d, err := startDaemon(e.monitord, args...)
	if err != nil {
		return nil, err
	}
	do := httpDoer()
	for t := range m.tenants {
		if err := createTenant(do, d.base, t, m.tenants[t].spec); err != nil {
			_ = d.stop()
			return nil, err
		}
	}
	return d, nil
}

// serverStats reads the daemon's GET /stats.
func serverStats(base string) (stats monitord.ServerStats, err error) {
	body, err := send(httpDoer(), http.MethodGet, base+"/stats", nil)
	if err != nil {
		return stats, err
	}
	return stats, json.Unmarshal(body, &stats)
}

// sample is one completed request.
type sample struct {
	class   int
	latency time.Duration // send → body drained
	cycle   time.Duration // the caller's previous completion → this one
}

// callerStreams is one seeded operation stream per closed-loop caller.
func callerStreams(e env, sz sizing, w workload, seed int64) []*opGen {
	gens := make([]*opGen, e.callers)
	for c := range gens {
		gens[c] = newOpGen(sz, *w.mix, seed, c, e.callers)
	}
	return gens
}

// closedLoop drives the daemon with one caller per stream for the given
// time. Closed loop: each caller sends its next request when the previous
// reply has been drained, as monitord's callers do. Every call dials new
// connections. It returns every completed request and the number that
// failed.
func closedLoop(gens []*opGen, base string, m *model, seconds float64) ([]sample, int) {
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		perCall = make([][]sample, len(gens))
		failed  = make([]int, len(gens))
		t0      time.Time
	)
	for c, gen := range gens {
		wg.Add(1)
		go func(c int, gen *opGen) {
			defer wg.Done()
			do := httpDoer()
			<-start
			deadline, prev := t0.Add(time.Duration(seconds*float64(time.Second))), t0
			for time.Now().Before(deadline) {
				o := gen.next()
				req, err := o.request(base)
				if err != nil {
					failed[c]++
					continue
				}
				sent := time.Now()
				status, _, err := do(req)
				now := time.Now()
				if err != nil || status/100 != 2 {
					failed[c]++
				} else {
					m.apply(c, o)
				}
				perCall[c] = append(perCall[c], sample{class: o.kind.class(), latency: now.Sub(sent), cycle: now.Sub(prev)})
				prev = now
			}
		}(c, gen)
	}
	t0 = time.Now()
	close(start)
	wg.Wait()
	var all []sample
	nFailed := 0
	for c := range perCall {
		all = append(all, perCall[c]...)
		nFailed += failed[c]
	}
	return all, nFailed
}

// checkFinalState compares every daemon tenant against a tenant created
// fresh, in-process, from the model's acknowledged end state: the
// incrementally maintained assessment and worst window must be byte-equal
// to a rebuild (the Σ f_t^i verdict included). It returns how many
// tenants differ.
func checkFinalState(m *model, base string) (int, error) {
	srv := monitord.NewServer()
	defer srv.Close()
	fresh, live := inProcess(srv), httpDoer()
	bad := 0
	for t := range m.tenants {
		if err := createTenant(fresh, "", t, m.finalSpec(t)); err != nil {
			return 0, fmt.Errorf("rebuild %s: %w", tenantName(t), err)
		}
		for _, url := range []func(string, int) string{assessmentURL, worstURL} {
			want, err := send(fresh, http.MethodGet, url("", t), nil)
			if err != nil {
				return 0, err
			}
			got, err := send(live, http.MethodGet, url(base, t), nil)
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(got, want) {
				bad++
				break
			}
		}
	}
	return bad, nil
}

// msByClass splits one duration of every sample by request class, in
// milliseconds.
func msByClass(samples []sample, of func(sample) time.Duration) [numClasses][]float64 {
	var out [numClasses][]float64
	for _, s := range samples {
		out[s.class] = append(out[s.class], float64(of(s))/float64(time.Millisecond))
	}
	return out
}

// cycleRate is the closed-loop request rate at each class's median cycle
// time, weighted by the mix actually sent: callers ÷ Σ share·median. The
// raw completions-per-second figure moves by a quarter from run to run on
// a shared box, because a hypervisor stall of a few milliseconds lands in
// the mean cycle time; the medians do not see it, while a slower request
// class still lowers the rate by its share of the mix.
func cycleRate(samples []sample, callers int) float64 {
	cycleMS := 0.0
	for _, xs := range msByClass(samples, func(s sample) time.Duration { return s.cycle }) {
		if len(xs) > 0 {
			cycleMS += float64(len(xs)) / float64(len(samples)) * median(xs)
		}
	}
	return float64(callers) * 1000 / cycleMS
}

// segments is how many parts the timed phase of a serve run is cut into.
const segments = 10

// serveEndToEnd measures a serve workload against the shipped daemon.
func serveEndToEnd(e env, sz sizing, w workload, seed int64, seconds float64) (*result, error) {
	r := newResult()
	m := newModel(sz, seed, e.callers)

	// Set-up is timed several times; the last daemon is the one measured.
	var d *daemon
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if d, err = setUpDaemon(e, m); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { _ = d.stop() }()

	// The timed phase is cut into segments, each on newly dialled
	// connections, and every metric is the median over segments: how the
	// kernel places the callers' and the daemon's threads on two shared
	// cores is settled per connection and moves a whole run otherwise.
	var (
		samples         []sample
		failed          int
		rate, p50, cpuS []float64
		gens            = callerStreams(e, sz, w, seed)
	)
	for seg := 0; seg < segments; seg++ {
		cpu0, err := d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		part, bad := closedLoop(gens, d.base, m, seconds/segments)
		cpu1, err := d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		if len(part) == 0 {
			return nil, fmt.Errorf("bench: %s: no request completed in %gs", w.name, seconds/segments)
		}
		samples, failed = append(samples, part...), failed+bad
		rate = append(rate, cycleRate(part, e.callers))
		p50 = append(p50, median(msByClass(part, func(s sample) time.Duration { return s.latency })[classRead]))
		cpuS = append(cpuS, (cpu1-cpu0)*1000/float64(len(part)))
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	bad, err := checkFinalState(m, d.base)
	if err != nil {
		return nil, err
	}
	stats, err := serverStats(d.base)
	if err != nil {
		return nil, err
	}
	stopErr := d.stop()

	r.Attempted, r.Failed = len(samples), failed+bad
	r.Correct = r.Failed == 0 && stopErr == nil
	lat := msByClass(samples, func(s sample) time.Duration { return s.latency })
	r.set("ops_per_s", median(rate), len(samples))
	r.set("p50_ms", median(p50), len(lat[classRead]))
	r.set("cpu_ms_per_op", median(cpuS), len(samples))
	r.set("peak_rss_mb", rss, 1)
	r.set("setup_s", median(setups), len(setups))

	r.notef("closed loop, %d callers, %d segments of %gs; %d tenants × %d replicas × %d vulns; raw rate %.0f/s", e.callers, segments, seconds/segments, sz.tenants, sz.replicas, sz.vulns, float64(len(samples))/seconds)
	r.notef("per segment: ops_per_s %.0f, p50_ms %.3f, cpu_ms_per_op %.3f", rate, p50, cpuS)
	for c, xs := range lat {
		if len(xs) > 0 {
			r.notef("%s: n=%d p50=%.3fms p90=%.3fms p99=%.3fms", classNames[c], len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99))
		}
	}
	r.notef("daemon cache: hits=%d delta_applies=%d rebuilds=%d; tenants failing the rebuild check: %d", stats.CacheHits, stats.CacheDeltaApplies, stats.CacheRebuilds, bad)
	if stopErr != nil {
		r.notef("daemon shutdown: %v", stopErr)
	}
	return r, nil
}
