package scenario

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/adversary"
	"repro/internal/committee"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/vuln"
)

// Engine hosts one scenario run: a sim scheduler owning virtual time, a
// registry and vulnerability catalog mutated only from scheduled events,
// and a monitor assessed inline after every event. Run builds the def's
// timeline, applies it (Timeline.Apply schedules every event), executes the
// schedule and collects the trace.
//
// Everything happens on the scheduler's goroutine in (time, scheduling
// order), so a run is a pure function of (Def, seed): no wall clock, no
// goroutine interleaving, no map-order dependence anywhere on the path to
// the trace bytes.
type Engine struct {
	def     Def
	seed    int64
	sched   *sim.Scheduler
	reg     *registry.Registry
	catalog *vuln.Catalog
	mon     *core.Monitor

	store     *workerStore // storage kept across a sweep worker's runs, or an empty one
	seq       uint64
	records   []Record // the trace; Run sizes it once, emit fills it in place
	emitting  bool     // an emit is in progress (emit is not re-entrant)
	runErr    error
	observers []Observer

	// parked holds the pre-partition power of replicas currently cut off
	// by a partition, so a heal can restore it. crashed does the same for
	// crash/restore; the two faults are mutually exclusive per replica. A
	// leave deletes the replica's entry, so an entry always belongs to the
	// live incarnation of its ID: one that left and re-joined inherits
	// nothing.
	parked  map[registry.ReplicaID]float64
	crashed map[registry.ReplicaID]float64
	// links tracks currently degraded replica pairs, so restore-link can
	// reject restoring a link that was never degraded.
	links map[linkPair]bool
}

// linkPair is an unordered replica pair (degradations are symmetric).
type linkPair struct{ a, b registry.ReplicaID }

func linkPairOf(a, b registry.ReplicaID) linkPair {
	if b < a {
		a, b = b, a
	}
	return linkPair{a: a, b: b}
}

// EventInfo is the structured description of an event handed to observers
// alongside the trace record: the event kind plus the replicas (and, for
// disclosures, the vulnerability; for degradations, the link fault) it
// touched. Detail strings are for humans; observers key off this.
type EventInfo struct {
	Kind string
	IDs  []registry.ReplicaID
	Vuln *vuln.Vulnerability
	// Fault is the link fault for "degrade" events; IDs holds its two
	// endpoints. Nil for every other kind (including "restore-link",
	// where IDs alone identify the healed link).
	Fault *FaultSpec
}

// Observer is called after every event's assessment with a pointer to the
// event's record, which already sits in its slot of the trace: what an
// observer writes there (the live loop annotates its cross-check and
// recovery-span fields this way) is the stored record. The pointer is valid
// only during the call — the trace may grow between two records — so an
// observer keeps values, never the pointer. An observer may schedule further
// events (Engine.At) but must not cause a record to be emitted before it
// returns: emit is not re-entrant, and a nested emit fails the run. An error
// aborts the run. Observers run in registration order on the scheduler
// goroutine.
type Observer interface {
	AfterEvent(e *Engine, info EventInfo, rec *Record) error
}

// Observe registers an observer for the rest of the run.
func (e *Engine) Observe(o Observer) {
	if o != nil {
		e.observers = append(e.observers, o)
	}
}

// newEngine assembles the run state for one scenario at one derived seed,
// on the storage st.
func newEngine(def Def, seed int64, st *workerStore) (*Engine, error) {
	sched := sim.NewScheduler(seed)
	reg := registry.New(nil)
	catalog := vuln.NewCatalog()
	mon, err := core.NewMonitor(reg, core.WithCatalog(catalog))
	if err != nil {
		return nil, err
	}
	return &Engine{
		def:     def,
		seed:    seed,
		store:   st,
		sched:   sched,
		reg:     reg,
		catalog: catalog,
		mon:     mon,
		parked:  make(map[registry.ReplicaID]float64),
		crashed: make(map[registry.ReplicaID]float64),
		links:   make(map[linkPair]bool),
	}, nil
}

// Registry exposes the membership under assessment. Mutate it only from
// inside an event (a timeline's, or one scheduled with At) so the mutation
// lands in the trace.
func (e *Engine) Registry() *registry.Registry { return e.reg }

// Catalog exposes the vulnerability catalog; disclose events populate it.
func (e *Engine) Catalog() *vuln.Catalog { return e.catalog }

// Monitor exposes the assessing monitor (BFT substrate, default
// weighting).
func (e *Engine) Monitor() *core.Monitor { return e.mon }

// fail latches the first event error and stops the run.
func (e *Engine) fail(err error) {
	if e.runErr == nil {
		e.runErr = err
		e.sched.Stop()
	}
}

// At schedules a custom event at virtual time t: fn runs, and its detail
// string lands in a trace record of the given kind together with the
// post-event assessment. fn returning an error aborts the run. This is how a
// harness schedules events of its own that are not grammar — the live loop's
// start, probes, attack and reactions; scheduling from within a running
// event is allowed for t >= now.
func (e *Engine) At(t time.Duration, event string, fn func(e *Engine) (detail string, err error)) error {
	if fn == nil {
		return errors.New("scenario: nil event func")
	}
	return e.atEvent(t, event, func(e *Engine) (string, EventInfo, error) {
		detail, err := fn(e)
		return detail, EventInfo{Kind: event}, err
	})
}

// atEvent is At with a structured EventInfo returned by the callback, used
// by the grammar's events so observers see which replicas an event touched.
func (e *Engine) atEvent(t time.Duration, event string, fn func(e *Engine) (string, EventInfo, error)) error {
	_, err := e.sched.At(t, event, func() {
		if e.runErr != nil {
			return
		}
		detail, info, err := fn(e)
		if err != nil {
			e.fail(fmt.Errorf("%s at %v: %w", event, e.sched.Now(), err))
			return
		}
		if err := e.emit(event, detail, nil, info); err != nil {
			e.fail(err)
		}
	})
	return err
}

// fmtPower renders voting power for trace details.
func fmtPower(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }

// joinAt schedules a declared join.
func (e *Engine) joinAt(t time.Duration, id registry.ReplicaID, cfg config.Configuration, power float64, patchLatency time.Duration) error {
	return e.atEvent(t, "join", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "join", IDs: []registry.ReplicaID{id}}
		if err := e.reg.JoinDeclared(id, cfg, power, patchLatency); err != nil {
			return "", info, err
		}
		return fmt.Sprintf("%s cfg=%s power=%s", id, cfg.Digest().Short(), fmtPower(power)), info, nil
	})
}

// leaveAt schedules a leave. A replica leaving while partitioned or crashed
// forfeits its parked power — a later heal or restore must not resurrect
// it, not even into a re-joined replica of the same ID.
func (e *Engine) leaveAt(t time.Duration, id registry.ReplicaID) error {
	return e.atEvent(t, "leave", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "leave", IDs: []registry.ReplicaID{id}}
		if err := e.reg.Leave(id); err != nil {
			return "", info, err
		}
		delete(e.parked, id)
		delete(e.crashed, id)
		return string(id), info, nil
	})
}

// setPowerAt schedules a power shift (hash-rate drift, stake movement).
// A shift landing on a partitioned replica applies to its parked power —
// the replica still cannot vote, but the new value is what the heal
// restores, so a drift during the partition is not lost.
func (e *Engine) setPowerAt(t time.Duration, id registry.ReplicaID, p float64) error {
	return e.atEvent(t, "power", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "power", IDs: []registry.ReplicaID{id}}
		if _, err := vuln.PowerUnits(p); err != nil {
			return "", info, err
		}
		if _, parked := e.parked[id]; parked {
			e.parked[id] = p
			return fmt.Sprintf("%s power=%s (partitioned; applies at heal)", id, fmtPower(p)), info, nil
		}
		if _, down := e.crashed[id]; down {
			e.crashed[id] = p
			return fmt.Sprintf("%s power=%s (crashed; applies at restore)", id, fmtPower(p)), info, nil
		}
		if err := e.reg.SetPower(id, p); err != nil {
			return "", info, err
		}
		return fmt.Sprintf("%s power=%s", id, fmtPower(p)), info, nil
	})
}

// migrateAt schedules a product/version migration: the replica stays but
// its configuration changes (patch rollout waves are migrations to the
// fixed version).
func (e *Engine) migrateAt(t time.Duration, id registry.ReplicaID, cfg config.Configuration) error {
	return e.atEvent(t, "migrate", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "migrate", IDs: []registry.ReplicaID{id}}
		if err := e.reg.Migrate(id, cfg); err != nil {
			return "", info, err
		}
		return fmt.Sprintf("%s cfg=%s", id, cfg.Digest().Short()), info, nil
	})
}

// disclose schedules a vulnerability's lifecycle: the catalog learns it at
// its disclosure instant (a "disclose" record) and, when the patch ships
// inside the horizon, a "patch" marker record at PatchAt — queued here, with
// its disclose, so it fires ahead of any later-listed event at PatchAt.
// Exploit-window effects per replica follow from patch latencies
// automatically.
func (e *Engine) disclose(v vuln.Vulnerability) error {
	err := e.atEvent(v.Disclosed, "disclose", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "disclose", Vuln: &v}
		if err := e.catalog.Add(v); err != nil {
			return "", info, err
		}
		target := v.Product
		if v.Version != "" {
			target += "@" + v.Version
		}
		return fmt.Sprintf("%s %s/%s sev=%s patch=%v", v.ID, v.Class, target, fmtPower(v.Severity), v.PatchAt), info, nil
	})
	if err != nil {
		return err
	}
	if v.PatchAt > v.Disclosed && v.PatchAt <= e.def.Horizon {
		return e.At(v.PatchAt, "patch", func(*Engine) (string, error) {
			return fmt.Sprintf("%s patch ships; windows close per replica latency", v.ID), nil
		})
	}
	return nil
}

// partitionAt schedules a network partition that cuts the given replicas
// off from consensus: their effective power drops to zero until a heal
// restores it (a partitioned replica cannot vote, so from the safety
// condition's viewpoint its power is gone).
func (e *Engine) partitionAt(t time.Duration, ids ...registry.ReplicaID) error {
	return e.atEvent(t, "partition", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "partition", IDs: ids}
		for _, id := range ids {
			rec, ok := e.reg.Get(id)
			if !ok {
				return "", info, fmt.Errorf("partition: unknown replica %s", id)
			}
			if _, already := e.parked[id]; already {
				return "", info, fmt.Errorf("partition: replica %s already partitioned", id)
			}
			if _, down := e.crashed[id]; down {
				return "", info, fmt.Errorf("partition: replica %s is crashed", id)
			}
			e.parked[id] = rec.Power
			if err := e.reg.SetPower(id, 0); err != nil {
				return "", info, err
			}
		}
		return fmt.Sprintf("%d replicas cut off", len(ids)), info, nil
	})
}

// healAt schedules the heal of a previous partition: every currently
// partitioned replica gets its pre-partition power back. A replica that
// left while partitioned is not among them (leaveAt).
func (e *Engine) healAt(t time.Duration) error {
	return e.atEvent(t, "heal", func(*Engine) (string, EventInfo, error) {
		ids := make([]registry.ReplicaID, 0, len(e.parked))
		for id := range e.parked {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		info := EventInfo{Kind: "heal"}
		for _, id := range ids {
			power := e.parked[id]
			delete(e.parked, id)
			if err := e.reg.SetPower(id, power); err != nil {
				return "", info, err
			}
			info.IDs = append(info.IDs, id)
		}
		return fmt.Sprintf("%d replicas rejoined", len(info.IDs)), info, nil
	})
}

// crashAt schedules a replica crash (or stall): like a partition, the
// replica's effective power drops to zero — it cannot vote — until
// a restore brings it back. Crash and partition are mutually exclusive
// faults per replica so their parked powers cannot shadow each other.
func (e *Engine) crashAt(t time.Duration, ids ...registry.ReplicaID) error {
	return e.atEvent(t, "crash", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "crash", IDs: ids}
		for _, id := range ids {
			rec, ok := e.reg.Get(id)
			if !ok {
				return "", info, fmt.Errorf("crash: unknown replica %s", id)
			}
			if _, down := e.crashed[id]; down {
				return "", info, fmt.Errorf("crash: replica %s already crashed", id)
			}
			if _, parked := e.parked[id]; parked {
				return "", info, fmt.Errorf("crash: replica %s is partitioned", id)
			}
			e.crashed[id] = rec.Power
			if err := e.reg.SetPower(id, 0); err != nil {
				return "", info, err
			}
		}
		return fmt.Sprintf("%d replicas crashed", len(ids)), info, nil
	})
}

// restoreAt schedules the restart of crashed replicas: the named ones (or
// every crashed replica when none are named) get their pre-crash power
// back. A replica that left while crashed is no longer crashed (leaveAt).
func (e *Engine) restoreAt(t time.Duration, ids ...registry.ReplicaID) error {
	return e.atEvent(t, "restore", func(*Engine) (string, EventInfo, error) {
		targets := ids
		if len(targets) == 0 {
			targets = make([]registry.ReplicaID, 0, len(e.crashed))
			for id := range e.crashed {
				targets = append(targets, id)
			}
			sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		}
		info := EventInfo{Kind: "restore"}
		for _, id := range targets {
			power, down := e.crashed[id]
			if !down {
				return "", info, fmt.Errorf("restore: replica %s is not crashed", id)
			}
			delete(e.crashed, id)
			if err := e.reg.SetPower(id, power); err != nil {
				return "", info, err
			}
			info.IDs = append(info.IDs, id)
		}
		return fmt.Sprintf("%d replicas restored", len(info.IDs)), info, nil
	})
}

// degradeAt schedules a symmetric link degradation between two replicas:
// the wire between them becomes lossy, slow, jittery, duplicating or
// reordering per the fault model. Unlike partitions and crashes it has no
// analytic power effect — a degraded replica still votes; whether it votes
// in time is exactly what the live harness (which mirrors the fault onto
// simnet) measures. Degrading an already degraded link replaces its fault.
func (e *Engine) degradeAt(t time.Duration, a, b registry.ReplicaID, f FaultSpec) error {
	return e.atEvent(t, "degrade", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "degrade", IDs: []registry.ReplicaID{a, b}, Fault: &f}
		for _, id := range []registry.ReplicaID{a, b} {
			if _, ok := e.reg.Get(id); !ok {
				return "", info, fmt.Errorf("degrade: unknown replica %s", id)
			}
		}
		e.links[linkPairOf(a, b)] = true
		return fmt.Sprintf("%s<->%s %s", a, b, f), info, nil
	})
}

// restoreLinkAt schedules the repair of a previously degraded link: the
// wire between the two replicas is clean again. Restoring a link that was
// never degraded (or already restored) is an error, mirroring restoreAt's
// strictness about crashed replicas.
func (e *Engine) restoreLinkAt(t time.Duration, a, b registry.ReplicaID) error {
	return e.atEvent(t, "restore-link", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "restore-link", IDs: []registry.ReplicaID{a, b}}
		key := linkPairOf(a, b)
		if !e.links[key] {
			return "", info, fmt.Errorf("restore-link: link %s<->%s is not degraded", a, b)
		}
		delete(e.links, key)
		return fmt.Sprintf("%s<->%s clean", a, b), info, nil
	})
}

// probeAt schedules an adversary probe: the strategy re-plans its best
// attack against the membership and catalog as they stand at t, and the
// plan lands in the trace's adversary columns.
func (e *Engine) probeAt(t time.Duration, s adversary.Strategy) error {
	_, err := e.sched.At(t, "probe", func() {
		if e.runErr != nil {
			return
		}
		snap, err := e.reg.Snapshot(registry.DefaultWeighting)
		if err != nil {
			e.fail(err)
			return
		}
		plan, err := s.Plan(adversary.Surface{
			At:        e.sched.Now(),
			Catalog:   e.catalog,
			Replicas:  snap.Replicas(),
			Members:   snap.Population().Members(),
			Threshold: e.mon.Threshold(),
		})
		if err != nil {
			e.fail(fmt.Errorf("probe at %v: %w", e.sched.Now(), err))
			return
		}
		if err := e.emit("probe", "", &plan, EventInfo{Kind: "probe"}); err != nil {
			e.fail(err)
		}
	})
	return err
}

// rotateAt schedules a committee rotation: a diversity-aware selection
// (committee.SelectDiverse) of `size` replicas over the membership as it
// stands at t, by stake and configuration. The membership is untouched; the
// committee's entropy next to the population's is the record's point.
func (e *Engine) rotateAt(t time.Duration, size int) error {
	return e.At(t, "rotate", func(*Engine) (string, error) {
		records := e.reg.Records()
		candidates := make([]committee.Candidate, len(records))
		for i, rec := range records {
			candidates[i] = committee.Candidate{
				ID:          string(rec.ID),
				Stake:       rec.Power,
				ConfigLabel: rec.Config.Digest().Short(),
			}
		}
		selected, err := committee.SelectDiverse(candidates, size)
		if err != nil {
			return "", err
		}
		members := make([]diversity.Member, len(selected))
		for i, c := range selected {
			members[i] = diversity.Member{Label: c.ConfigLabel, Power: c.Stake}
		}
		pop, err := diversity.NewPopulation(members)
		if err != nil {
			return "", err
		}
		rep, err := diversity.ReportForPopulation(pop)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("k=%d committee entropy=%.3fb effective-configs=%.2f", size, rep.Entropy, rep.EffectiveConfigurations), nil
	})
}

// emit assesses the membership at the current instant and appends one
// trace record, filled in place: the record is appended first and the
// assessment and the observers write through a pointer to its slot. A
// membership with no effective power (empty registry, or everyone
// partitioned) yields a structural record with zeroed metrics — there is
// nothing to assess and nothing to compromise. Any error aborts the run,
// which drops the trace together with the half-filled record.
func (e *Engine) emit(event, detail string, adv *adversary.Plan, info EventInfo) error {
	if e.emitting {
		return fmt.Errorf("scenario: %s at %v: emit re-entered while a record is being observed", event, e.sched.Now())
	}
	e.emitting = true
	defer func() { e.emitting = false }()
	now := e.sched.Now()
	e.records = append(e.records, Record{
		Seq:      e.seq,
		T:        now.String(),
		TNanos:   int64(now),
		Scenario: e.def.Name,
		Event:    event,
		Detail:   detail,
	})
	rec := &e.records[len(e.records)-1]
	e.seq++
	snap, err := e.reg.Snapshot(registry.DefaultWeighting)
	if err != nil {
		return err
	}
	rec.Replicas = snap.NumReplicas()
	rec.Power = snap.Distribution.Total()
	rec.Configs = snap.Distribution.Support()
	if rec.Power > 0 {
		a, err := e.mon.Assess(now)
		if err != nil {
			return err
		}
		rec.Entropy = a.Diversity.Entropy
		rec.MaxShare = a.Diversity.MaxShare
		rec.Compromised = a.Injection.TotalFraction
		rec.Safe = a.Safe
		worst, err := e.mon.WorstAssessment(e.def.Horizon)
		if err != nil {
			return err
		}
		rec.WorstAtNanos = int64(worst.At)
		rec.WorstFraction = worst.Injection.TotalFraction
		rec.WorstSafe = worst.Safe
	} else {
		rec.Safe = true
		rec.WorstSafe = true
	}
	if adv != nil {
		rec.AdvStrategy = adv.Strategy
		rec.AdvDetail = adv.Detail
		rec.AdvFraction = adv.Fraction
		rec.AdvBreaks = adv.Breaks
	}
	for _, o := range e.observers {
		if err := o.AfterEvent(e, info, rec); err != nil {
			return fmt.Errorf("observer: %s at %v: %w", event, now, err)
		}
	}
	return nil
}

// Result is one completed scenario run.
type Result struct {
	// Name is the scenario name; Seed the derived scheduler seed the run
	// used (see DeriveSeed).
	Name string
	Seed int64
	// Records is the trace in emission order.
	Records []Record
	// Horizon and Threshold capture the run's frame for post-run checks:
	// the virtual duration and the substrate fault tolerance every Safe
	// flag in the trace was judged against (see invariant.go). Neither is
	// part of the trace encoding.
	Horizon   time.Duration
	Threshold float64
}

// Summary condenses the run.
func (r *Result) Summary() Summary {
	return Summarize(r.Name, r.Seed, r.Records)
}

// RunOpt is a functional option for Run, mirroring core.NewMonitor's
// options pattern — the one run entrypoint replaces the old
// Run/RunNamed pair.
type RunOpt func(*runConfig)

type runConfig struct {
	observers []Observer
	store     *workerStore // nil: the run gets an empty one
}

// withStore runs on a sweep worker's kept storage. The Result's Records then
// share the store's memory: the caller hands them back once it has read them.
func withStore(st *workerStore) RunOpt {
	return func(rc *runConfig) { rc.store = st }
}

// WithObserver registers an observer on the engine before the timeline is
// applied, so harnesses that need no scheduling of their own (the invariant
// oracle, trace probes) can watch any def. Observers registered this way run
// before the live harness, which attaches when the timeline is applied.
func WithObserver(o Observer) RunOpt {
	return func(rc *runConfig) {
		if o != nil {
			rc.observers = append(rc.observers, o)
		}
	}
}

// Run executes one scenario at the given base seed and returns its trace.
// Identical (def, baseSeed, opts) always produce identical results, byte
// for byte through the JSON/CSV encodings.
func Run(def Def, baseSeed int64, opts ...RunOpt) (*Result, error) {
	var rc runConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&rc)
		}
	}
	if def.Build == nil || def.Horizon <= 0 {
		return nil, fmt.Errorf("scenario: invalid definition %q", def.Name)
	}
	if rc.store == nil {
		rc.store = new(workerStore)
	}
	seed := DeriveSeed(baseSeed, def.Name)
	e, err := newEngine(def, seed, rc.store)
	if err != nil {
		return nil, err
	}
	for _, o := range rc.observers {
		e.Observe(o)
	}
	tl := def.Build(e.sched.Rand())
	if tl == nil || tl.Name != def.Name || tl.Horizon.D() != def.Horizon {
		return nil, fmt.Errorf("scenario %s: the def's timeline does not carry its name and horizon", def.Name)
	}
	if err := tl.Apply(e); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", def.Name, err)
	}
	tick := def.Tick
	if tick <= 0 {
		tick = def.Horizon / 24
	}
	if tick <= 0 {
		tick = def.Horizon
	}
	// Size the trace once, in the store's records: every event scheduled so
	// far emits at most one record, then one per tick and the final one.
	// Only a run that schedules events mid-run (the live loop's reactions)
	// can outgrow this. emit appends whole records, so nothing of a kept
	// trace shows through.
	e.records = slices.Grow(e.store.records[:0], e.sched.Pending()+int(def.Horizon/tick)+2)
	if _, err := e.sched.Every(0, tick, "tick", func() {
		if e.runErr != nil {
			return
		}
		if err := e.emit("tick", "", nil, EventInfo{Kind: "tick"}); err != nil {
			e.fail(err)
		}
	}); err != nil {
		return nil, err
	}
	if err := e.sched.Run(def.Horizon); err != nil && !errors.Is(err, sim.ErrStopped) {
		return nil, err
	}
	if e.runErr != nil {
		return nil, fmt.Errorf("scenario %s: %w", def.Name, e.runErr)
	}
	if err := e.emit("final", "", nil, EventInfo{Kind: "final"}); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", def.Name, err)
	}
	return &Result{
		Name: def.Name, Seed: seed, Records: e.records,
		Horizon: def.Horizon, Threshold: e.mon.Threshold(),
	}, nil
}
