package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/vuln"
)

// Engine hosts one scenario run: a sim scheduler owning virtual time, a
// registry and vulnerability catalog mutated only from scheduled events,
// and a monitor assessed inline after every event. Scenario Setup hooks
// program the timeline through the *At helpers; Run executes it and
// collects the trace.
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

	seq       uint64
	records   []Record // the trace; Run sizes it once, emit fills it in place
	emitting  bool     // an emit is in progress (emit is not re-entrant)
	runErr    error
	observers []Observer

	// parked holds the pre-partition power of replicas currently cut off
	// by PartitionAt, so HealAt can restore it. crashed does the same for
	// CrashAt/RestoreAt; the two faults are mutually exclusive per replica.
	parked  map[registry.ReplicaID]parkedPower
	crashed map[registry.ReplicaID]parkedPower
	// links tracks currently degraded replica pairs (DegradeAt), so
	// RestoreLinkAt can reject restoring a link that was never degraded.
	links map[linkPair]LinkFault
}

// LinkFault describes a degraded link between two replicas: the scenario
// grammar's mirror of simnet.Fault, kept separate so the analytic engine
// does not depend on the wire package.
type LinkFault struct {
	Drop         float64       // extra per-message loss probability, [0, 1)
	ExtraLatency time.Duration // constant added delay
	Jitter       time.Duration // uniform random added delay in [0, Jitter]
	Duplicate    float64       // probability of a second delivery, [0, 1]
	Reorder      float64       // probability of a hold-back, [0, 1]
}

// Validate applies the same domain rules as simnet.Fault.Validate.
func (f LinkFault) Validate() error {
	if f.Drop < 0 || f.Drop >= 1 {
		return fmt.Errorf("scenario: link fault drop %v out of [0,1)", f.Drop)
	}
	if f.ExtraLatency < 0 {
		return fmt.Errorf("scenario: negative link fault extra latency %v", f.ExtraLatency)
	}
	if f.Jitter < 0 {
		return fmt.Errorf("scenario: negative link fault jitter %v", f.Jitter)
	}
	if f.Duplicate < 0 || f.Duplicate > 1 {
		return fmt.Errorf("scenario: link fault duplicate %v out of [0,1]", f.Duplicate)
	}
	if f.Reorder < 0 || f.Reorder > 1 {
		return fmt.Errorf("scenario: link fault reorder %v out of [0,1]", f.Reorder)
	}
	return nil
}

// String renders the non-zero fault parameters for trace details.
func (f LinkFault) String() string {
	s := ""
	if f.Drop > 0 {
		s += fmt.Sprintf(" drop=%s", fmtPower(f.Drop))
	}
	if f.ExtraLatency > 0 {
		s += fmt.Sprintf(" extra=%v", f.ExtraLatency)
	}
	if f.Jitter > 0 {
		s += fmt.Sprintf(" jitter=%v", f.Jitter)
	}
	if f.Duplicate > 0 {
		s += fmt.Sprintf(" dup=%s", fmtPower(f.Duplicate))
	}
	if f.Reorder > 0 {
		s += fmt.Sprintf(" reorder=%s", fmtPower(f.Reorder))
	}
	if s == "" {
		return "clean"
	}
	return s[1:]
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
	Fault *LinkFault
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

// parkedPower remembers one partitioned replica's pre-partition power and
// when the partition took it. A record whose JoinedAt is later than `at`
// is a new incarnation of the id (left and re-joined mid-partition) and
// must not inherit the dead incarnation's power.
type parkedPower struct {
	power float64
	at    time.Duration
}

// newEngine assembles the run state for one scenario at one derived seed.
func newEngine(def Def, seed int64) (*Engine, error) {
	sched := sim.NewScheduler(seed)
	reg := registry.New(nil, sched.Now)
	catalog := vuln.NewCatalog()
	mon, err := core.NewMonitor(reg,
		core.WithCatalog(catalog),
		core.WithClock(sched.Now),
	)
	if err != nil {
		return nil, err
	}
	return &Engine{
		def:     def,
		seed:    seed,
		sched:   sched,
		reg:     reg,
		catalog: catalog,
		mon:     mon,
		parked:  make(map[registry.ReplicaID]parkedPower),
		crashed: make(map[registry.ReplicaID]parkedPower),
		links:   make(map[linkPair]LinkFault),
	}, nil
}

// Def returns the definition this engine is running — observers use it to
// read run-level configuration such as a timeline's LiveSpec.
func (e *Engine) Def() Def { return e.def }

// Scheduler exposes the run's scheduler (virtual clock, deterministic RNG).
func (e *Engine) Scheduler() *sim.Scheduler { return e.sched }

// Rand is the run's seeded RNG; scenario code must draw all randomness
// from it to stay replayable.
func (e *Engine) Rand() *rand.Rand { return e.sched.Rand() }

// Registry exposes the membership under assessment. Mutate it only
// through the *At helpers so mutations land in the trace.
func (e *Engine) Registry() *registry.Registry { return e.reg }

// Catalog exposes the vulnerability catalog; populate it via Disclose.
func (e *Engine) Catalog() *vuln.Catalog { return e.catalog }

// Monitor exposes the assessing monitor (BFT substrate, default
// weighting).
func (e *Engine) Monitor() *core.Monitor { return e.mon }

// Horizon returns the scenario's virtual end time.
func (e *Engine) Horizon() time.Duration { return e.def.Horizon }

// fail latches the first event error and stops the run.
func (e *Engine) fail(err error) {
	if e.runErr == nil {
		e.runErr = err
		e.sched.Stop()
	}
}

// At schedules a custom event at virtual time t: fn runs, and its detail
// string lands in a trace record of the given kind together with the
// post-event assessment. fn returning an error aborts the run. Scheduling
// from within a running event is allowed for t >= now, which is how the
// live loop injects its reactions.
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
// by the *At helpers so observers see which replicas an event touched.
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

// JoinAt schedules a declared join.
func (e *Engine) JoinAt(t time.Duration, id registry.ReplicaID, cfg config.Configuration, power float64, patchLatency time.Duration) error {
	return e.atEvent(t, "join", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "join", IDs: []registry.ReplicaID{id}}
		if err := e.reg.JoinDeclared(id, cfg, power, patchLatency); err != nil {
			return "", info, err
		}
		return fmt.Sprintf("%s cfg=%s power=%s", id, cfg.Digest().Short(), fmtPower(power)), info, nil
	})
}

// LeaveAt schedules a leave. A replica leaving while partitioned forfeits
// its parked power — a later heal must not resurrect it.
func (e *Engine) LeaveAt(t time.Duration, id registry.ReplicaID) error {
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

// SetPowerAt schedules a power shift (hash-rate drift, stake movement).
// A shift landing on a partitioned replica applies to its parked power —
// the replica still cannot vote, but the new value is what HealAt
// restores, so a drift during the partition is not lost.
func (e *Engine) SetPowerAt(t time.Duration, id registry.ReplicaID, power float64) error {
	return e.atEvent(t, "power", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "power", IDs: []registry.ReplicaID{id}}
		rec, ok := e.reg.Get(id)
		if entry, parked := e.parked[id]; parked && ok && rec.JoinedAt <= entry.at {
			if power < 0 || math.IsNaN(power) || math.IsInf(power, 0) {
				return "", info, fmt.Errorf("invalid power %v", power)
			}
			e.parked[id] = parkedPower{power: power, at: entry.at}
			return fmt.Sprintf("%s power=%s (partitioned; applies at heal)", id, fmtPower(power)), info, nil
		}
		if entry, down := e.crashed[id]; down && ok && rec.JoinedAt <= entry.at {
			if power < 0 || math.IsNaN(power) || math.IsInf(power, 0) {
				return "", info, fmt.Errorf("invalid power %v", power)
			}
			e.crashed[id] = parkedPower{power: power, at: entry.at}
			return fmt.Sprintf("%s power=%s (crashed; applies at restore)", id, fmtPower(power)), info, nil
		}
		if err := e.reg.SetPower(id, power); err != nil {
			return "", info, err
		}
		return fmt.Sprintf("%s power=%s", id, fmtPower(power)), info, nil
	})
}

// MigrateAt schedules a product/version migration: the replica stays but
// its configuration changes (patch rollout waves are migrations to the
// fixed version).
func (e *Engine) MigrateAt(t time.Duration, id registry.ReplicaID, cfg config.Configuration) error {
	return e.atEvent(t, "migrate", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "migrate", IDs: []registry.ReplicaID{id}}
		if err := e.reg.Migrate(id, cfg); err != nil {
			return "", info, err
		}
		return fmt.Sprintf("%s cfg=%s", id, cfg.Digest().Short()), info, nil
	})
}

// Disclose schedules a vulnerability's lifecycle: the catalog learns it at
// its disclosure instant (a "disclose" record) and, when the patch ships
// inside the horizon, a "patch" marker record at PatchAt. Exploit-window
// effects per replica follow from patch latencies automatically.
func (e *Engine) Disclose(v vuln.Vulnerability) error {
	if err := v.Validate(); err != nil {
		return err
	}
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

// PartitionAt schedules a network partition that cuts the given replicas
// off from consensus: their effective power drops to zero until HealAt
// restores it (a partitioned replica cannot vote, so from the safety
// condition's viewpoint its power is gone).
func (e *Engine) PartitionAt(t time.Duration, ids ...registry.ReplicaID) error {
	return e.atEvent(t, "partition", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "partition", IDs: ids}
		now := e.sched.Now()
		for _, id := range ids {
			rec, ok := e.reg.Get(id)
			if !ok {
				return "", info, fmt.Errorf("partition: unknown replica %s", id)
			}
			if entry, already := e.parked[id]; already && rec.JoinedAt <= entry.at {
				return "", info, fmt.Errorf("partition: replica %s already partitioned", id)
			}
			if entry, down := e.crashed[id]; down && rec.JoinedAt <= entry.at {
				return "", info, fmt.Errorf("partition: replica %s is crashed", id)
			}
			e.parked[id] = parkedPower{power: rec.Power, at: now}
			if err := e.reg.SetPower(id, 0); err != nil {
				return "", info, err
			}
		}
		return fmt.Sprintf("%d replicas cut off", len(ids)), info, nil
	})
}

// HealAt schedules the heal of a previous partition: every currently
// partitioned replica gets its pre-partition power back. A replica that
// left while partitioned is simply forgotten — its parked power must not
// survive into a later incarnation of the same id.
func (e *Engine) HealAt(t time.Duration) error {
	return e.atEvent(t, "heal", func(*Engine) (string, EventInfo, error) {
		ids := make([]registry.ReplicaID, 0, len(e.parked))
		for id := range e.parked {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		info := EventInfo{Kind: "heal"}
		n := 0
		for _, id := range ids {
			entry := e.parked[id]
			delete(e.parked, id)
			rec, ok := e.reg.Get(id)
			if !ok || rec.JoinedAt > entry.at {
				continue // left (and possibly re-joined) while partitioned
			}
			if err := e.reg.SetPower(id, entry.power); err != nil {
				return "", info, err
			}
			info.IDs = append(info.IDs, id)
			n++
		}
		return fmt.Sprintf("%d replicas rejoined", n), info, nil
	})
}

// CrashAt schedules a replica crash (or stall): like a partition, the
// replica's effective power drops to zero — it cannot vote — until
// RestoreAt brings it back. Crash and partition are mutually exclusive
// faults per replica so their parked powers cannot shadow each other.
func (e *Engine) CrashAt(t time.Duration, ids ...registry.ReplicaID) error {
	return e.atEvent(t, "crash", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "crash", IDs: ids}
		now := e.sched.Now()
		for _, id := range ids {
			rec, ok := e.reg.Get(id)
			if !ok {
				return "", info, fmt.Errorf("crash: unknown replica %s", id)
			}
			if entry, down := e.crashed[id]; down && rec.JoinedAt <= entry.at {
				return "", info, fmt.Errorf("crash: replica %s already crashed", id)
			}
			if entry, parked := e.parked[id]; parked && rec.JoinedAt <= entry.at {
				return "", info, fmt.Errorf("crash: replica %s is partitioned", id)
			}
			e.crashed[id] = parkedPower{power: rec.Power, at: now}
			if err := e.reg.SetPower(id, 0); err != nil {
				return "", info, err
			}
		}
		return fmt.Sprintf("%d replicas crashed", len(ids)), info, nil
	})
}

// RestoreAt schedules the restart of crashed replicas: the named ones (or
// every crashed replica when none are named) get their pre-crash power
// back. A replica that left while crashed stays gone.
func (e *Engine) RestoreAt(t time.Duration, ids ...registry.ReplicaID) error {
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
		n := 0
		for _, id := range targets {
			entry, down := e.crashed[id]
			if !down {
				return "", info, fmt.Errorf("restore: replica %s is not crashed", id)
			}
			delete(e.crashed, id)
			rec, ok := e.reg.Get(id)
			if !ok || rec.JoinedAt > entry.at {
				continue // left (and possibly re-joined) while crashed
			}
			if err := e.reg.SetPower(id, entry.power); err != nil {
				return "", info, err
			}
			info.IDs = append(info.IDs, id)
			n++
		}
		return fmt.Sprintf("%d replicas restored", n), info, nil
	})
}

// DegradeAt schedules a symmetric link degradation between two replicas:
// the wire between them becomes lossy, slow, jittery, duplicating or
// reordering per the fault model. Unlike partitions and crashes it has no
// analytic power effect — a degraded replica still votes; whether it votes
// in time is exactly what the live harness (which mirrors the fault onto
// simnet) measures. Degrading an already degraded link replaces its fault.
func (e *Engine) DegradeAt(t time.Duration, a, b registry.ReplicaID, f LinkFault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("scenario: degrade needs two distinct replicas, got %s twice", a)
	}
	return e.atEvent(t, "degrade", func(*Engine) (string, EventInfo, error) {
		fault := f
		info := EventInfo{Kind: "degrade", IDs: []registry.ReplicaID{a, b}, Fault: &fault}
		for _, id := range []registry.ReplicaID{a, b} {
			if _, ok := e.reg.Get(id); !ok {
				return "", info, fmt.Errorf("degrade: unknown replica %s", id)
			}
		}
		e.links[linkPairOf(a, b)] = f
		return fmt.Sprintf("%s<->%s %s", a, b, f), info, nil
	})
}

// RestoreLinkAt schedules the repair of a previously degraded link: the
// wire between the two replicas is clean again. Restoring a link that was
// never degraded (or already restored) is an error, mirroring RestoreAt's
// strictness about crashed replicas.
func (e *Engine) RestoreLinkAt(t time.Duration, a, b registry.ReplicaID) error {
	if a == b {
		return fmt.Errorf("scenario: restore-link needs two distinct replicas, got %s twice", a)
	}
	return e.atEvent(t, "restore-link", func(*Engine) (string, EventInfo, error) {
		info := EventInfo{Kind: "restore-link", IDs: []registry.ReplicaID{a, b}}
		key := linkPairOf(a, b)
		if _, degraded := e.links[key]; !degraded {
			return "", info, fmt.Errorf("restore-link: link %s<->%s is not degraded", a, b)
		}
		delete(e.links, key)
		return fmt.Sprintf("%s<->%s clean", a, b), info, nil
	})
}

// ProbeAt schedules an adversary probe: the strategy re-plans its best
// attack against the membership and catalog as they stand at t, and the
// plan lands in the trace's adversary columns.
func (e *Engine) ProbeAt(t time.Duration, s adversary.Strategy) error {
	if s == nil {
		return errors.New("scenario: nil strategy")
	}
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
	tick      time.Duration
}

// WithObserver registers an observer on the engine before Setup runs, so
// harnesses that need no scheduling of their own (the invariant oracle,
// trace probes) can watch any def — including data-first Timeline defs —
// without wrapping its Setup. Observers registered this way run before
// any the Setup hook adds.
func WithObserver(o Observer) RunOpt {
	return func(rc *runConfig) {
		if o != nil {
			rc.observers = append(rc.observers, o)
		}
	}
}

// WithTick overrides the def's assessment cadence for this run only —
// e.g. a sweep densifying ticks on a suspicious timeline without editing
// it. d <= 0 keeps the def's own cadence.
func WithTick(d time.Duration) RunOpt {
	return func(rc *runConfig) { rc.tick = d }
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
	setup := def.setup()
	if setup == nil || def.Horizon <= 0 {
		return nil, fmt.Errorf("scenario: invalid definition %q", def.Name)
	}
	seed := DeriveSeed(baseSeed, def.Name)
	e, err := newEngine(def, seed)
	if err != nil {
		return nil, err
	}
	for _, o := range rc.observers {
		e.Observe(o)
	}
	if err := setup(e); err != nil {
		return nil, fmt.Errorf("scenario %s: setup: %w", def.Name, err)
	}
	tick := rc.tick
	if tick <= 0 {
		tick = def.Tick
	}
	if tick <= 0 {
		tick = def.Horizon / 24
	}
	if tick <= 0 {
		tick = def.Horizon
	}
	// Size the trace once: every event scheduled so far emits at most one
	// record, then one per tick and the final one. Only a run that schedules
	// events mid-run (the live loop's reactions) can outgrow this.
	e.records = make([]Record, 0, e.sched.Pending()+int(def.Horizon/tick)+2)
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
