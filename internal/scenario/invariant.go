package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/registry"
	"repro/internal/vuln"
)

// Invariants are properties every trace is supposed to satisfy — the
// checks the generative sweep applies to thousands of machine-written
// timelines the library's hand-written tests would never think of. A
// violation is not an error: the run completed; the trace just witnesses
// a property failure, and the shrinker turns that witness into a minimal
// timeline.

// Violation is one invariant failure, pinned to the trace record that
// witnessed it.
type Violation struct {
	Invariant string `json:"invariant"`
	Scenario  string `json:"scenario"`
	Seq       uint64 `json:"seq"`
	T         string `json:"t,omitempty"`
	Detail    string `json:"detail"`
}

// InvariantObserver is a run-time invariant hook: it watches the run like
// any Observer and reports the violations it collected afterwards. Run-time
// observation is for properties that need the engine's internal state (the
// oracle cross-check needs the registry snapshot and catalog at each
// instant); trace-only properties use a post-run Check instead.
type InvariantObserver interface {
	Observer
	Violations() []Violation
}

// Invariant is one named property. Check inspects the completed run (may be
// nil); NewObserver builds a fresh run-time observer per run (may be nil).
// At least one of the two must be set.
type Invariant struct {
	Name string
	Desc string
	// Check inspects the completed trace.
	Check func(res *Result) []Violation
	// NewObserver returns a fresh per-run observer whose collected
	// violations are appended after the run.
	NewObserver func() InvariantObserver
}

// DefaultInvariants returns the properties expected to hold on every
// scenario the trusted generator profiles emit — the sweep's acceptance
// bar. Order is fixed; violation output is deterministic.
func DefaultInvariants() []Invariant {
	return []Invariant{SafeConsistency(), WorstDominates(), PatchMonotone(), OracleAgreement(), ViewLiveness()}
}

// InvariantByName resolves an invariant by name, covering the defaults
// (which include view-liveness) plus never-unsafe (the shrink demo target,
// deliberately not in the defaults: plenty of legitimate scenarios breach
// the threshold).
func InvariantByName(name string) (Invariant, bool) {
	for _, inv := range append(DefaultInvariants(), NeverUnsafe()) {
		if inv.Name == name {
			return inv, true
		}
	}
	return Invariant{}, false
}

// violate builds one violation from a record.
func violate(name string, res *Result, rec Record, format string, args ...any) Violation {
	return Violation{
		Invariant: name,
		Scenario:  res.Name,
		Seq:       rec.Seq,
		T:         rec.T,
		Detail:    fmt.Sprintf(format, args...),
	}
}

// SafeConsistency: a record's Safe flag must equal the threshold test on
// its own compromised fraction — the trace cannot contradict itself about
// the safety condition it claims to have evaluated.
func SafeConsistency() Invariant {
	name := "safe-consistency"
	return Invariant{
		Name: name,
		Desc: "Safe == (assessed fraction <= substrate tolerance) on every record",
		Check: func(res *Result) []Violation {
			var out []Violation
			for _, rec := range res.Records {
				if want := res.Threshold >= rec.Compromised; rec.Safe != want {
					out = append(out, violate(name, res, rec,
						"safe=%t but compromised=%g vs threshold=%g", rec.Safe, rec.Compromised, res.Threshold))
				}
			}
			return out
		},
	}
}

// WorstDominates: the predicted worst window dominates the instantaneous
// assessment — its fraction is at least the current one, it lies inside the
// horizon, and a record cannot be unsafe now while claiming the worst
// window is safe. Both fractions divide exact unit sums by the same total,
// so the comparison needs no slack.
func WorstDominates() Invariant {
	name := "worst-dominates"
	return Invariant{
		Name: name,
		Desc: "worst-window fraction >= instantaneous fraction, inside the horizon",
		Check: func(res *Result) []Violation {
			var out []Violation
			for _, rec := range res.Records {
				if rec.WorstFraction < rec.Compromised {
					out = append(out, violate(name, res, rec,
						"worst window %g below instantaneous %g", rec.WorstFraction, rec.Compromised))
				}
				if !rec.Safe && rec.WorstSafe {
					out = append(out, violate(name, res, rec,
						"record unsafe (Σf=%g) but worst window claims safe", rec.Compromised))
				}
				if rec.WorstAtNanos < 0 || rec.WorstAtNanos > int64(res.Horizon) {
					out = append(out, violate(name, res, rec,
						"worst window at %v outside horizon %v", time.Duration(rec.WorstAtNanos), res.Horizon))
				}
			}
			return out
		},
	}
}

// pureEvents are record kinds that mutate neither membership nor catalog:
// between such a record and its predecessor only virtual time passed.
var pureEvents = map[string]bool{"tick": true, "patch": true, "probe": true, "final": true}

// patchMonotoneObserver tracks consecutive assessments and flags exposure
// rising across pure time passage.
//
// The check is gated on an all-severity-1 catalog — and that gate is load-
// bearing, not cautious. At severity 1 a vulnerability compromises every
// affected replica with an open window, so per-replica window closures
// strictly shrink each vulnerability's take set and the deduplicated union
// is monotone. At severity s < 1 the take is the top-⌈s·m⌉ replicas by
// power among the m still-open ones; one replica's window closing shifts
// that top-k set onto different replicas, and the union across several
// vulnerabilities can legitimately GROW with no event in between. The gate
// needs the catalog, which is why this invariant observes the run instead
// of checking the trace.
type patchMonotoneObserver struct {
	prevComp   float64
	prevEvent  string
	violations []Violation

	// The gate's verdict, keyed on the catalog generation it was read at:
	// severities are re-scanned only when a disclosure moved the catalog.
	// The zero value is right for the empty catalog a run starts with.
	catGen uint64
	lowSev bool // some disclosed vulnerability has severity < 1
}

func (o *patchMonotoneObserver) AfterEvent(e *Engine, info EventInfo, rec *Record) error {
	defer func() { o.prevComp, o.prevEvent = rec.Compromised, rec.Event }()
	if o.prevEvent == "" || !pureEvents[rec.Event] {
		return nil
	}
	if gen := e.Catalog().Generation(); gen != o.catGen {
		o.catGen, o.lowSev = gen, false
		for _, v := range e.Catalog().All() {
			if v.Severity != 1 {
				o.lowSev = true
				break
			}
		}
	}
	if o.lowSev {
		return nil
	}
	if rec.Compromised > o.prevComp {
		o.violations = append(o.violations, Violation{
			Invariant: "patch-monotone",
			Scenario:  rec.Scenario,
			Seq:       rec.Seq,
			T:         rec.T,
			Detail: fmt.Sprintf("exposure rose %g -> %g across %q with no state change",
				o.prevComp, rec.Compromised, rec.Event),
		})
	}
	return nil
}

func (o *patchMonotoneObserver) Violations() []Violation { return o.violations }

// PatchMonotone: between two consecutive records where the second is pure
// time passage (tick, patch-ship marker, probe, final) nothing touches the
// membership or the catalog, so exposure can only fall as patch windows
// close — never rise. Only checked while every disclosed vulnerability has
// severity 1; below that, top-k take-set shifts make rising exposure
// legitimate (see patchMonotoneObserver).
func PatchMonotone() Invariant {
	return Invariant{
		Name:        "patch-monotone",
		Desc:        "exposure is non-increasing across pure time passage (severity-1 catalogs)",
		NewObserver: func() InvariantObserver { return &patchMonotoneObserver{} },
	}
}

// oracleEvery samples every Nth record for the oracle cross-check. Both
// rebuilds match every vulnerability against the whole membership — the
// flat one per replica, O(replicas x vulns) — so checking every record would
// dominate sweep time on churn-heavy timelines; the storage is recycled, the
// matching is not.
const oracleEvery = 4

// oracleObserver cross-checks the monitor's incremental fraction and a
// GroupInjector rebuilt from scratch against the flat oracle at sampled
// instants. Both references are rebuilt from every sampled snapshot; what
// outlives a sample is storage only, and it lives in the engine's store
// (oracleStore), so a sweep worker carries it from one timeline to the next:
// the snapshot's replicas and buckets are appended into kept buffers, and a
// warm Rebuild of either injector allocates nothing. The flat injector reads
// the replicas in bucket order, not ID order: its injection is independent
// of the order it is fed (it sorts each exposed set into attack order).
type oracleObserver struct {
	violations []Violation
}

func (o *oracleObserver) AfterEvent(e *Engine, info EventInfo, rec *Record) error {
	if rec.Seq%oracleEvery != 0 {
		return nil
	}
	now := time.Duration(rec.TNanos)
	snap, err := e.Registry().Snapshot(registry.DefaultWeighting)
	if err != nil {
		return err
	}
	kept := &e.store.oracle
	kept.replicas = snap.AppendReplicas(kept.replicas[:0])
	if err := kept.flat.Rebuild(e.Catalog(), kept.replicas); err != nil {
		return err
	}
	flat := kept.flat.Inject(now)
	add := func(format string, args ...any) {
		o.violations = append(o.violations, Violation{
			Invariant: "oracle-agreement",
			Scenario:  rec.Scenario,
			Seq:       rec.Seq,
			T:         rec.T,
			Detail:    fmt.Sprintf(format, args...),
		})
	}
	// The trace's compromised fraction came through the monitor's long-lived
	// incremental GroupInjector; the flat rescan is the oracle it must match
	// exactly (the incremental path guarantees byte-equality, not just
	// closeness).
	if rec.Power > 0 && rec.Compromised != flat.TotalFraction {
		add("incremental fraction %g != flat oracle %g", rec.Compromised, flat.TotalFraction)
	}
	// A GroupInjector rebuilt from the same snapshot must agree with the
	// flat path fault for fault: names, powers and fractions of every fault.
	kept.specs = snap.AppendBucketSpecs(kept.specs[:0])
	if err := kept.grouped.Rebuild(e.Catalog(), kept.specs); err != nil {
		return err
	}
	grouped := kept.grouped.Inject(now)
	if !sameInjection(flat, grouped) {
		// Marshal only to word the violation; a clean run never encodes.
		fj, err := json.Marshal(flat)
		if err != nil {
			return err
		}
		gj, err := json.Marshal(grouped)
		if err != nil {
			return err
		}
		add("group decomposition diverges from flat oracle: %s != %s", gj, fj)
	}
	return nil
}

// sameInjection compares two injections field by field. It is at least as
// strict as comparing their JSON encodings, which is what it replaces: a nil
// slice differs from an empty one (null vs []), floats are equal only bit
// for bit (−0 differs from 0) and NaN equals nothing.
func sameInjection(a, b vuln.Injection) bool {
	if a.At != b.At || !sameFloat(a.TotalFraction, b.TotalFraction) || !sameFloat(a.SumFraction, b.SumFraction) {
		return false
	}
	if len(a.Faults) != len(b.Faults) || (a.Faults == nil) != (b.Faults == nil) {
		return false
	}
	for i := range a.Faults {
		fa, fb := &a.Faults[i], &b.Faults[i]
		if fa.Vuln != fb.Vuln || !sameFloat(fa.Power, fb.Power) || !sameFloat(fa.PowerFraction, fb.PowerFraction) {
			return false
		}
		if (fa.Compromised == nil) != (fb.Compromised == nil) || !slices.Equal(fa.Compromised, fb.Compromised) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool {
	return a == b && math.Signbit(a) == math.Signbit(b)
}

func (o *oracleObserver) Violations() []Violation { return o.violations }

// OracleAgreement: at sampled instants the flat per-replica injector — the
// oracle — is compared against two grouped ones. The monitor's long-lived
// GroupInjector (fed by snapshot diffs) must report exactly the oracle's
// deduplicated fraction, which is all of it the trace carries; a
// GroupInjector built fresh from the same snapshot must reproduce the
// oracle's whole injection, fault for fault and name for name.
func OracleAgreement() Invariant {
	return Invariant{
		Name:        "oracle-agreement",
		Desc:        "incremental injection equals the flat oracle at sampled instants",
		NewObserver: func() InvariantObserver { return &oracleObserver{} },
	}
}

// ViewLiveness: once a rotation-enabled live cluster is up (the live-start
// record advertises its view timeout), no liveness probe may observe a
// stall the view-aware model said could not happen — a crashed or muted
// primary is supposed to cost at most a bounded run of view changes, not
// liveness. Stalls the model *predicted* (quorum lost to partitions,
// crashes or a silence attack) are fine, as is the reverse direction (an
// unpredicted commit), which stays a plain divergence. Vacuous for
// analytic-only runs and for fixed-primary clusters.
func ViewLiveness() Invariant {
	name := "view-liveness"
	return Invariant{
		Name: name,
		Desc: "under rotation, no probe stalls when the view-aware model predicted liveness",
		Check: func(res *Result) []Violation {
			rotation := false
			var out []Violation
			for _, rec := range res.Records {
				if rec.Event == "live-start" && strings.Contains(rec.Detail, "view-timeout=") {
					rotation = true
				}
				if !rotation || rec.Check != "liveness" {
					continue
				}
				if strings.Contains(rec.CheckDetail, "predicted=true observed=false") {
					out = append(out, violate(name, res, rec,
						"probe stalled despite predicted liveness under rotation: %s (view=%d changes=%d)",
						rec.CheckDetail, rec.LiveView, rec.ViewChanges))
				}
			}
			return out
		},
	}
}

// NeverUnsafe: no record breaches the safety threshold. Real scenarios
// breach it all the time — that is the point of the paper — so this is not
// a default invariant; it is the canonical shrink target: "find me the
// minimal timeline that breaks safety".
func NeverUnsafe() Invariant {
	name := "never-unsafe"
	return Invariant{
		Name: name,
		Desc: "no record breaches the safety threshold",
		Check: func(res *Result) []Violation {
			var out []Violation
			for _, rec := range res.Records {
				if !rec.Safe {
					out = append(out, violate(name, res, rec,
						"unsafe at %s: Σf=%g > threshold %g", rec.T, rec.Compromised, res.Threshold))
				}
			}
			return out
		},
	}
}

// CheckRun runs one scenario and applies the invariants: run-time observers
// are attached before the run, post-run checks after. Violations come back
// in invariant order, record order within each — deterministic for a
// deterministic run. The run error (if any) is returned with a nil result;
// a violating run is NOT an error.
func CheckRun(def Def, baseSeed int64, invs []Invariant, opts ...RunOpt) (*Result, []Violation, error) {
	observers := make([]InvariantObserver, len(invs))
	runOpts := append([]RunOpt(nil), opts...)
	for i, inv := range invs {
		if inv.NewObserver == nil {
			continue
		}
		observers[i] = inv.NewObserver()
		runOpts = append(runOpts, WithObserver(observers[i]))
	}
	res, err := Run(def, baseSeed, runOpts...)
	if err != nil {
		return nil, nil, err
	}
	var violations []Violation
	for i, inv := range invs {
		if observers[i] != nil {
			violations = append(violations, observers[i].Violations()...)
		}
		if inv.Check != nil {
			violations = append(violations, inv.Check(res)...)
		}
	}
	return res, violations, nil
}
