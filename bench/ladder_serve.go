package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/monitord"
	"repro/internal/registry"
	"repro/internal/vuln"
)

// The serve ladder: one caller replays the same seeded operation prefix
//
//	client     against the daemon as shipped
//	notimeout  against the daemon with -timeout 0 (no TimeoutHandler)
//	handler    against Server.ServeHTTP in-process (no socket)
//	direct     by calling what the handler calls (no mux, no JSON)
//	steps      by doing the monitor's refresh itself, call by call
//
// Each rung starts from identically seeded tenants, so the difference of
// two rungs' times is the layer between them. The two daemons are replayed
// side by side, op by op; the in-process rungs one after another.

func opPrefix(sz sizing, w workload, seed int64) []op {
	gen := newOpGen(sz, *w.mix, seed, 0, 1)
	ops := make([]op, sz.traceOps)
	for i := range ops {
		ops[i] = gen.next()
	}
	return ops
}

// target is one rung reached over a doer: a daemon, or a Server in-process.
type target struct {
	rung, base string
	dial       func() doer
}

// redialEvery is how many ops a serial replay keeps one connection for.
// Where the kernel runs the daemon's connection thread relative to the
// caller is settled per connection and is worth ±10 % of a round trip, so
// a replay samples many placements instead of betting the rung on one.
const redialEvery = 250

// replay sends every op to each target in turn, one span per send named
// target.rung.<class>. The first target's span is caused by parents[i] (a
// root when parents is nil), each later one by the target before it, so
// rungs replayed together are compared op by op at the same moment. It
// returns the last target's span indices and body bytes, the failures,
// and the first target's wall time per op in microseconds, taken outside
// the tracer's own calls.
func replay(tr *tracer, targets []target, ops []op, parents []int) (ids []int, bytes, failed int, wallUS []float64) {
	ids, wallUS = make([]int, len(ops)), make([]float64, len(ops))
	doers := make([]doer, len(targets))
	for i, o := range ops {
		parent := -1
		if parents != nil {
			parent = parents[i]
		}
		for k, t := range targets {
			if i%redialEvery == 0 {
				doers[k] = t.dial()
			}
			req, err := o.request(t.base)
			if err != nil {
				failed++
				continue
			}
			start := time.Now()
			parent = tr.begin(i, t.rung+"."+classNames[o.kind.class()], parent)
			status, body, err := doers[k](req)
			tr.end(parent)
			if k == 0 {
				wallUS[i] = float64(time.Since(start)) / 1000
			}
			if err != nil || status/100 != 2 {
				failed++
			}
			if k == len(targets)-1 {
				ids[i], bytes = parent, bytes+len(body)
			}
		}
	}
	return ids, bytes, failed, wallUS
}

var osConfigs = func() (cfgs [32]config.Configuration) {
	for p := range cfgs {
		cfgs[p] = config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: productName(p), Version: "1"})
	}
	return cfgs
}()

// mutate applies a mutation op as the handler would, under one span named
// after the registry or catalog call it makes.
func mutate(tr *tracer, i int, t *monitord.Tenant, o op, parent int) error {
	var (
		name string
		call func() error
	)
	switch o.kind {
	case opPower:
		name, call = "registry.set_power", func() error { return t.Registry.SetPower(registry.ReplicaID(replicaID(o.replica)), o.power) }
	case opMigrate:
		name, call = "registry.migrate", func() error {
			return t.Registry.Migrate(registry.ReplicaID(replicaID(o.replica)), osConfigs[o.product])
		}
	case opJoin:
		name, call = "registry.join", func() error {
			return t.Registry.JoinDeclared(registry.ReplicaID(o.spec.ID), osConfigs[o.product], o.spec.Power, time.Duration(o.spec.PatchLatency))
		}
	case opLeave:
		name, call = "registry.leave", func() error { return t.Registry.Leave(registry.ReplicaID(o.spec.ID)) }
	case opVuln:
		v := vuln.Vulnerability{
			ID: vuln.ID(o.vuln.ID), Class: config.ClassOperatingSystem, Product: o.vuln.Product,
			Disclosed: time.Duration(o.vuln.Disclosed), PatchAt: time.Duration(o.vuln.PatchAt), Severity: o.vuln.Severity,
		}
		name, call = "vuln.catalog_add", func() error { return t.Catalog.Add(v) }
	}
	id := tr.begin(i, name, parent)
	err := call()
	tr.end(id)
	return err
}

// inProcessTenants creates the seeded tenants on a fresh in-process server
// through the manager, clocks at tenantNow, monitors untouched.
func inProcessTenants(sz sizing, seed int64) (*monitord.Server, []*monitord.Tenant, error) {
	srv := monitord.NewServer()
	tenants := make([]*monitord.Tenant, sz.tenants)
	for i := range tenants {
		t, err := srv.Manager().Create(tenantName(i), tenantSpec(sz, seed, i))
		if err != nil {
			return nil, nil, err
		}
		if _, err := t.AdvanceTo(tenantNow); err != nil {
			return nil, nil, err
		}
		tenants[i] = t
	}
	return srv, tenants, nil
}

// replayDirect is the direct rung: tenant lookup, then the registry,
// catalog or monitor call the handler would make. dirty tracks whether a
// tenant mutated since its last assessment (the next one pays the delta
// path), stale whether since its last worst window (the next one re-sweeps).
func replayDirect(tr *tracer, sz sizing, seed int64, ops []op, parents []int) (ids []int, total core.CacheStats, err error) {
	srv, tenants, err := inProcessTenants(sz, seed)
	if err != nil {
		return nil, total, err
	}
	defer srv.Close()
	for i, t := range tenants {
		id := tr.begin(-1-i, "core.assess_rebuild", -1)
		_, err := t.Monitor.Assess(t.Now())
		tr.end(id)
		if err == nil {
			_, err = t.Monitor.WorstAssessment(worstHorizon)
		}
		if err != nil {
			return nil, total, err
		}
	}
	ids = make([]int, len(ops))
	dirty, stale := make([]bool, sz.tenants), make([]bool, sz.tenants)
	for i, o := range ops {
		root := tr.begin(i, "monitord.direct", parents[i])
		ids[i] = root
		id := tr.begin(i, "monitord.lookup", root)
		t, ok := srv.Manager().Get(tenantName(o.tenant))
		tr.end(id)
		if !ok {
			return nil, total, errors.New("bench: tenant lost")
		}
		var err error
		switch o.kind.class() {
		case classRead:
			name := "core.assess_hit"
			if dirty[o.tenant] {
				name = "core.assess_delta"
			}
			id := tr.begin(i, name, root)
			_, err = t.Monitor.Assess(t.Now())
			tr.end(id)
			dirty[o.tenant] = false
		case classWorst:
			name := "core.worst_memo"
			if stale[o.tenant] {
				name = "core.worst_sweep"
			}
			id := tr.begin(i, name, root)
			_, err = t.Monitor.WorstAssessment(worstHorizon)
			tr.end(id)
			dirty[o.tenant], stale[o.tenant] = false, false
		default:
			err = mutate(tr, i, t, o, root)
			dirty[o.tenant], stale[o.tenant] = true, true
		}
		tr.end(root)
		if err != nil {
			return nil, total, fmt.Errorf("direct rung, op %d (%s): %w", i, opKindNames[o.kind], err)
		}
	}
	for _, t := range tenants {
		cs := t.Monitor.Stats()
		total.Hits += cs.Hits
		total.DeltaApplies += cs.DeltaApplies
		total.Rebuilds += cs.Rebuilds
	}
	return ids, total, nil
}

// replaySteps is the innermost rung: the benchmark keeps its own
// (previous snapshot, injector) pair per tenant and performs the monitor's
// refresh step by step, so each step gets its own span. The tenants'
// monitors are never called.
func replaySteps(tr *tracer, sz sizing, seed int64, ops []op, parents []int) error {
	srv, tenants, err := inProcessTenants(sz, seed)
	if err != nil {
		return err
	}
	defer srv.Close()
	type derived struct {
		snap   *registry.Snapshot
		gi     *vuln.GroupInjector
		catGen uint64
	}
	state := make([]derived, sz.tenants)
	for i, t := range tenants {
		d := &state[i]
		id := tr.begin(-1-i, "registry.snapshot_full", -1)
		d.snap, err = t.Registry.Snapshot(registry.DefaultWeighting)
		tr.end(id)
		if err != nil {
			return err
		}
		d.catGen = t.Catalog.Generation()
		id = tr.begin(-1-i, "vuln.build", -1)
		d.gi, err = vuln.NewGroupInjector(t.Catalog, d.snap.BucketSpecs())
		tr.end(id)
		if err != nil {
			return err
		}
	}
	// refresh is core.Monitor's delta path, one span per call.
	refresh := func(i int, t *monitord.Tenant, d *derived, parent int) error {
		id := tr.begin(i, "registry.snapshot_delta", parent)
		snap, err := t.Registry.Snapshot(registry.DefaultWeighting)
		tr.end(id)
		if err != nil {
			return err
		}
		if snap != d.snap {
			id = tr.begin(i, "diversity.report", parent)
			_, err = snap.Report()
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin(i, "registry.diff", parent)
			changed, removed := registry.DiffSnapshots(d.snap, snap)
			tr.end(id)
			tr.count("registry.diff_buckets", len(changed)+len(removed))
			id = tr.begin(i, "vuln.apply_buckets", parent)
			d.gi.ApplyBuckets(changed, removed)
			tr.end(id)
			d.snap = snap
		}
		if gen := t.Catalog.Generation(); gen != d.catGen {
			id = tr.begin(i, "vuln.apply_catalog", parent)
			d.gi.ApplyCatalog(t.Catalog)
			tr.end(id)
			d.catGen = gen
		}
		return nil
	}
	dirty, stale := make([]bool, sz.tenants), make([]bool, sz.tenants)
	for i, o := range ops {
		t, d := tenants[o.tenant], &state[o.tenant]
		var err error
		switch o.kind.class() {
		case classRead:
			name := "steps.assess_hit"
			if dirty[o.tenant] {
				name = "steps.assess_delta"
			}
			root := tr.begin(i, name, parents[i])
			if dirty[o.tenant] {
				err = refresh(i, t, d, root)
			}
			id := tr.begin(i, "vuln.inject", root)
			d.gi.Inject(t.Now())
			tr.end(id)
			tr.end(root)
			dirty[o.tenant] = false
		case classWorst:
			if !stale[o.tenant] {
				break // memoised: nothing inside to time
			}
			root := tr.begin(i, "steps.worst_sweep", parents[i])
			if dirty[o.tenant] {
				err = refresh(i, t, d, root)
			}
			if err == nil {
				id := tr.begin(i, "vuln.worst_window", root)
				_, err = d.gi.WorstWindow(worstHorizon)
				tr.end(id)
			}
			tr.end(root)
			tr.count("vuln.critical_instants", len(d.gi.CriticalInstants(worstHorizon)))
			dirty[o.tenant], stale[o.tenant] = false, false
		default:
			err = mutate(nil, i, t, o, -1)
			dirty[o.tenant], stale[o.tenant] = true, true
		}
		if err != nil {
			return fmt.Errorf("steps rung, op %d (%s): %w", i, opKindNames[o.kind], err)
		}
	}
	return nil
}

// watchDelivery opens one SSE stream on a dedicated virtual tenant and
// times POST advance → the event it causes, n times.
func watchDelivery(base string, sz sizing, seed int64, n int) ([]float64, error) {
	do := httpDoer()
	small := sz
	small.replicas, small.vulns = 64, 4
	url := base + "/tenants/watch"
	if _, err := send(do, http.MethodPut, url, tenantSpec(small, seed, 0)); err != nil {
		return nil, err
	}
	resp, err := http.Get(url + "/watch")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	events := make(chan time.Time, n+1) // one per advance plus the immediate first: the reader never blocks
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data:") {
				select {
				case events <- time.Now():
				default:
					return
				}
			}
		}
	}()
	next := func() (time.Time, error) {
		select {
		case at, ok := <-events:
			if !ok {
				return at, errors.New("bench: watch stream ended")
			}
			return at, nil
		case <-time.After(10 * time.Second):
			return time.Time{}, errors.New("bench: no watch event within 10s")
		}
	}
	if _, err := next(); err != nil { // the immediate first assessment
		return nil, err
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := send(do, http.MethodPost, url+"/advance", monitord.AdvanceSpec{By: monitord.Duration(time.Second)}); err != nil {
			return nil, err
		}
		at, err := next()
		if err != nil {
			return nil, err
		}
		out = append(out, float64(at.Sub(start))/float64(time.Millisecond))
	}
	return out, nil
}

func serveLadder(e env, sz sizing, w workload, seed int64, seconds float64) (*result, error) {
	r, tr := newResult(), newTracer()
	ops := opPrefix(sz, w, seed)
	m := newModel(sz, seed, e.callers)

	// Rungs 1 and 2, the daemon as shipped and the daemon without its
	// TimeoutHandler wrapper, side by side: each op goes to one and then
	// the other, so both see the same state and the same moment.
	d, err := setUpDaemon(e, m)
	if err != nil {
		return nil, err
	}
	defer func() { _ = d.stop() }()
	bare, err := setUpDaemon(e, m, "-timeout", "0")
	if err != nil {
		return nil, err
	}
	defer func() { _ = bare.stop() }()
	daemonIDs, _, failed, clientWallUS := replay(tr, []target{{"client", d.base, httpDoer}, {"notimeout", bare.base, httpDoer}}, ops, nil)
	r.Failed += failed
	if err := bare.stop(); err != nil {
		return nil, err
	}
	watch, err := watchDelivery(d.base, sz, seed, sz.watchSamples)
	if err != nil {
		return nil, err
	}
	stats, err := serverStats(d.base)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Rung 3, the handler in-process; the Go runtime's bill is read here,
	// where the work is the program's own and not the HTTP client's.
	srv := monitord.NewServer()
	defer srv.Close()
	local := inProcess(srv)
	for t := range m.tenants {
		if err := createTenant(local, "", t, m.tenants[t].spec); err != nil {
			return nil, err
		}
	}
	before := readGoCost()
	handlerIDs, respBytes, failed, _ := replay(tr, []target{{"monitord.handler", "", func() doer { return local }}}, ops, daemonIDs)
	r.setGoCost(before, readGoCost(), len(ops))
	r.Failed += failed

	// Rungs 4 and 5, below the handler.
	directIDs, cache, err := replayDirect(tr, sz, seed, ops, handlerIDs)
	if err != nil {
		return nil, err
	}
	if err := replaySteps(tr, sz, seed, ops, directIDs); err != nil {
		return nil, err
	}

	// The closed loop again, on a fresh daemon, for the per-class view the
	// end-to-end run prints but does not put in its result.
	if d, err = setUpDaemon(e, m); err != nil {
		return nil, err
	}
	samples, failed := closedLoop(callerStreams(e, sz, w, seed), d.base, m, seconds/2)
	r.Failed += failed
	bad, err := checkFinalState(m, d.base)
	if err != nil {
		return nil, err
	}
	r.Failed += bad
	if err := d.stop(); err != nil {
		return nil, err
	}
	r.Attempted = 3*len(ops) + len(samples)
	r.Correct = r.Failed == 0

	set := r.set
	setUS := func(name string, us []float64) { set(name, median(us), len(us)) }
	rung := func(prefix string) []float64 { // all classes, in op order
		return tr.us(prefix+"."+classNames[classRead], prefix+"."+classNames[classWorst], prefix+"."+classNames[classMutate])
	}
	lat := msByClass(samples, func(s sample) time.Duration { return s.latency })
	for c, class := range classNames {
		setUS("client."+class+"_roundtrip_us", tr.us("client."+class))
		setUS("monitord."+class+"_handler_us", tr.us("monitord.handler."+class))
		set("client."+class+"_p50_ms", quantile(lat[c], 0.5), len(lat[c]))
		set("client."+class+"_p90_ms", quantile(lat[c], 0.9), len(lat[c]))
		set("client."+class+"_p99_ms", quantile(lat[c], 0.99), len(lat[c]))
	}
	set("client.raw_ops_per_s", float64(len(samples))/(seconds/2), len(samples))
	client, noTimeout, handler, direct := rung("client"), rung("notimeout"), rung("monitord.handler"), tr.us("monitord.direct")
	set("cmd.monitord.timeout_wrap_us", pairedUS(client, noTimeout), len(ops))
	set("client.transport_us", pairedUS(noTimeout, handler), len(ops))
	set("monitord.self_us", pairedUS(handler, direct), len(ops))
	set("monitord.lookup_ns", median(tr.us("monitord.lookup"))*1000, len(ops))
	set("monitord.resp_bytes", float64(respBytes)/float64(len(ops)), len(ops))
	for _, name := range []string{
		"registry.set_power", "registry.migrate", "registry.join", "registry.leave", "vuln.catalog_add",
		"core.assess_hit", "core.worst_memo", "core.assess_delta", "core.worst_sweep",
		"registry.snapshot_delta", "registry.diff", "diversity.report", "vuln.apply_buckets", "vuln.apply_catalog",
		"vuln.inject", "vuln.worst_window", "core.assess_rebuild", "registry.snapshot_full", "vuln.build",
	} {
		setUS(name+"_us", tr.us(name))
	}
	for _, name := range []string{"registry.diff_buckets", "vuln.critical_instants"} {
		set(name, mean(tr.counts[name]), len(tr.counts[name]))
	}
	// What Monitor.Assess spends outside the calls the steps rung makes.
	set("core.self_us", pairedUS(tr.us("core.assess_delta"), tr.us("steps.assess_delta")), len(tr.us("core.assess_delta")))
	set("core.hits", float64(cache.Hits), 1)
	set("core.delta_applies", float64(cache.DeltaApplies), 1)
	set("core.rebuilds", float64(cache.Rebuilds), 1)
	set("core.hit_ratio", float64(cache.Hits)/float64(cache.Hits+cache.DeltaApplies+cache.Rebuilds), 1)
	set("monitord.watch_delivery_ms", median(watch), len(watch))
	set("monitord.watch_dropped", float64(stats.WatchDropped), 1)
	// Each op's wall time was also taken around the tracer's calls: what
	// lies between that and the span itself is what tracing added.
	set("trace.overhead_share", pairedUS(clientWallUS, client)/median(client), len(ops))
	r.zeroUnset()

	r.notef("serial ladder over %d ops, median per op: client %.1fus → notimeout %.1fus → handler %.1fus → direct %.1fus", len(ops), median(client), median(noTimeout), median(handler), median(direct))
	r.notef("time at or below core.Monitor as a share of the round trip: read %.1f%%, worst %.1f%%",
		100*sum(tr.us("core.assess_hit", "core.assess_delta"))/sum(tr.us("client.read")),
		100*sum(tr.us("core.worst_memo", "core.worst_sweep"))/sum(tr.us("client.worst")))
	if delta := tr.us("core.assess_delta"); len(delta) > 0 {
		r.notef("the steps rung accounts for %.1f%% of core.assess_delta_us", 100*median(tr.us("steps.assess_delta"))/median(delta))
	}
	path := filepath.Join(e.outDir, "trace-"+w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	r.notef("%d spans in %s", len(tr.spans), path)
	return r, nil
}
