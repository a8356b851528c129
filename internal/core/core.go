// Package core assembles the paper's contribution into an operational
// fault-independence service for permissionless blockchains:
//
//   - Monitor: continuous assessment of a live replica registry — entropy,
//     κ/ω optimality (Definitions 1–2), effective configurations,
//     min-faults-to-break, and the Sec. II-C safety condition
//     f ≥ Σ f_t^i evaluated against a vulnerability catalog.
//   - Enforcement policies: an admission policy that caps each
//     configuration's share of effective power, and the conclusion's
//     two-tier (attested vs declared) vote weighting, both of which reshape
//     the effective voting-power distribution to raise entropy without
//     excluding anyone (permissionless systems cannot reject joiners; they
//     can only discount weight).
//
// Committee selection (internal/committee) provides the third
// enforcement point: diversity-aware membership.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/diversity"
	"repro/internal/registry"
	"repro/internal/vuln"
)

// Thresholds for the two protocol families (tolerated Byzantine power
// fraction f).
const (
	BFTThreshold      = 1.0 / 3.0 // quorum-based BFT protocols
	NakamotoThreshold = 1.0 / 2.0 // longest-chain protocols
)

// Assessment is a point-in-time fault-independence report for a live
// population.
type Assessment struct {
	At        time.Duration
	Diversity diversity.Report
	// Injection is the vulnerability fault picture at the instant.
	Injection vuln.Injection
	// Substrate names the consensus family whose safety rule was applied.
	Substrate string
	// Threshold is the tolerated Byzantine power fraction used.
	Threshold float64
	// Safe is the Sec. II-C condition: Threshold >= Σ f_t^i (deduplicated).
	Safe bool
}

// Monitor assesses a registry against a vulnerability catalog at the
// instants its caller gives it: Assess(t) and WorstAssessment(h). It keeps
// no clock of its own; whoever drives the deployment (monitord's tenants,
// the scenario engine, a test) owns time and paces any stream.
//
// Assessment state is cached per registry snapshot: the diversity report
// and the vulnerability exposure index (vuln.GroupInjector) are patched
// only when the registry mutates or the catalog grows. On top of that the
// last Assess is memoised with the interval on which it stays true — the
// fault picture is a step function of time — so repeated Assess calls on an
// unchanged membership evaluate nothing until the instant crosses the next
// disclosure or window close.
// The monitor's methods are safe for concurrent use, and registry mutation
// between or during assessments is synchronized by the registry itself:
// every assessment sees either the pre- or the post-mutation membership.
// Returned assessments share their slices with the memo: treat them as
// read-only. The fault slices go further: a fault's Compromised list is
// the exposure index's kept one, shared by every later fill in which that
// fault has not changed (see vuln.GroupInjector), so a caller may key
// work it derives from a fault on the slice's identity.
type Monitor struct {
	reg       *registry.Registry
	catalog   *vuln.Catalog
	weighting registry.Weighting
	substrate Substrate

	mu       sync.Mutex
	snap     *registry.Snapshot // snapshot the caches below derive from
	catGen   uint64             // catalog generation the injector was built at
	report   diversity.Report
	injector *vuln.GroupInjector
	// summaryFaults elides compromised-name lists from injections
	// (vuln.GroupInjector.InjectSummary) — the O(groups) assessment mode
	// for very large populations. See WithSummaryFaults.
	summaryFaults bool
	// worst memoizes the last WorstAssessment: the sweep is a pure
	// function of (snapshot, catalog generation, horizon), so repeated
	// calls on an unchanged registry — one per scenario trace record —
	// reuse it instead of re-sweeping the critical instants.
	worst        Assessment
	worstHorizon time.Duration
	worstValid   bool
	worstFill    uint64
	// assessed memoizes the last Assess: for an unchanged (snapshot, catalog
	// generation) the fault picture filled in at assessed.At holds on
	// [assessed.At, assessedUntil) — up to the next disclosure or window
	// close — so only At differs between assessments inside that interval.
	// Invalidated together with worst.
	assessed      Assessment
	assessedUntil time.Duration
	assessedValid bool
	assessedFill  uint64
	// fills numbers the computations behind the two memos above; see
	// AssessMemo.
	fills uint64

	stats CacheStats
}

// CacheStats counts how the monitor's per-snapshot cache behaved. The
// first assessment pays a Rebuild (full exposure index construction);
// after that every registry generation or catalog growth the monitor
// observes is a DeltaApply — only the changed buckets and the new
// vulnerabilities are patched into the derived state — and every other
// assessment, however many concurrent readers and watch streams ask, is a
// Hit. The monitord service exposes these so a test (and an operator) can
// prove that N watchers on one tenant cost one *incremental* computation
// per generation, not N rebuilds.
type CacheStats struct {
	// Rebuilds is the number of full cache rebuilds: the first snapshot a
	// monitor observes. Every later snapshot is built by delta from the
	// registry's previous one, however many mutations went unread.
	Rebuilds uint64
	// DeltaApplies is the number of incremental reuses: a changed registry
	// snapshot or a grown catalog absorbed by patching the previous
	// derived state in O(Δ) instead of rebuilding it.
	DeltaApplies uint64
	// Hits is the number of assessments served entirely from the
	// per-snapshot cache.
	Hits uint64
	// AssessMemoHits counts the Hits of Assess whose instant also lay inside
	// the memoised interval, so that no fault picture was evaluated at all.
	AssessMemoHits uint64
	// WorstSweeps is the number of worst-window sweeps actually run
	// (memoised WorstAssessment calls count none). WorstInstants is the
	// critical instants those sweeps covered and WorstEvaluated the ones
	// whose exact fraction had to be evaluated because the pruning bound
	// could not rule them out: WorstEvaluated ≈ WorstInstants means the
	// sweep has degraded to a full one. A catalog that keeps every bucket
	// open at severity < 1 does that; at severity 1 the same catalog ties
	// every bound at the total, and the sweep evaluates one instant. The
	// injector keeps the instants and their bounds across writes, so an
	// instant covered is not an instant collected again; the one evaluated
	// first, the seed, re-derives only the faults a write touched.
	WorstSweeps    uint64
	WorstInstants  uint64
	WorstEvaluated uint64
}

// NewMonitor wires a monitor over a live registry. Every knob beyond the
// registry is a functional option:
//
//	mon, err := core.NewMonitor(reg,
//		core.WithCatalog(catalog),
//		core.WithSubstrate(core.Nakamoto),
//		core.WithWeighting(registry.Weighting{Attested: 1, Declared: 0.5}),
//	)
//
// Defaults: empty catalog, registry.DefaultWeighting and the BFT substrate
// (f = 1/3).
func NewMonitor(reg *registry.Registry, opts ...Option) (*Monitor, error) {
	if reg == nil {
		return nil, errors.New("core: nil registry")
	}
	m := &Monitor{
		reg:       reg,
		catalog:   vuln.NewCatalog(),
		weighting: registry.DefaultWeighting,
		substrate: BFT,
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("core: nil option")
		}
		if err := opt(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Substrate returns the consensus family the monitor assesses against.
func (m *Monitor) Substrate() Substrate { return m.substrate }

// Stats returns a snapshot of the monitor's cache counters.
func (m *Monitor) Stats() CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Threshold returns the tolerated Byzantine power fraction in force.
func (m *Monitor) Threshold() float64 { return m.substrate.Tolerance }

// refreshLocked brings the caches (diversity report, exposure index) up
// to date with the registry's current snapshot and the catalog's current
// generation, so both registry churn and Catalog.Add after construction
// show up in the very next assessment. m.mu must be held.
func (m *Monitor) refreshLocked() error {
	snap, err := m.reg.Snapshot(m.weighting)
	if err != nil {
		return err
	}
	catGen := m.catalog.Generation()
	if snap == m.snap && catGen == m.catGen {
		m.stats.Hits++
		return nil
	}
	if m.injector != nil && m.snap != nil {
		// Delta path: the previous snapshot shares every untouched
		// bucket's pointer with the new one, so the diff is O(Δ); patch
		// only those exposure sets, absorb any new vulnerabilities, and
		// recompute the diversity report from the bucket aggregates.
		if snap != m.snap {
			report, err := snap.Report()
			if err != nil {
				return fmt.Errorf("core: diversity report: %w", err)
			}
			changed, removed := registry.DiffSnapshots(m.snap, snap)
			m.injector.ApplyBuckets(changed, removed)
			m.report = report
		}
		if catGen != m.catGen {
			m.injector.ApplyCatalog(m.catalog)
		}
		m.stats.DeltaApplies++
		m.snap, m.catGen = snap, catGen
		m.worstValid, m.assessedValid = false, false
		return nil
	}
	m.stats.Rebuilds++
	report, err := snap.Report()
	if err != nil {
		return fmt.Errorf("core: diversity report: %w", err)
	}
	injector, err := vuln.NewGroupInjector(m.catalog, snap.BucketSpecs())
	if err != nil {
		return err
	}
	m.report = report
	m.snap, m.catGen, m.injector = snap, catGen, injector
	m.worstValid, m.assessedValid = false, false
	return nil
}

// injectLocked evaluates the instant under the configured fault-detail
// mode. m.mu must be held and the caches fresh.
func (m *Monitor) injectLocked(t time.Duration) vuln.Injection {
	if m.summaryFaults {
		return m.injector.InjectSummary(t)
	}
	return m.injector.Inject(t)
}

// Assess computes the full report at virtual time t. On an unchanged
// registry the diversity report and the vulnerability exposure index come
// from the snapshot cache, and the fault picture is evaluated only when t
// has left the interval the last evaluation holds on.
func (m *Monitor) Assess(t time.Duration) (Assessment, error) {
	a, _, err := m.AssessMemo(t)
	return a, err
}

// AssessMemo is Assess also reporting which evaluation the result came
// from: fill is equal for two results (of AssessMemo or
// WorstAssessmentMemo) exactly when both are the same memoised
// computation, in which case they differ at most in At. A caller that
// derives something costly from an assessment — monitord's encoded bodies
// — keys it on fill.
func (m *Monitor) AssessMemo(t time.Duration) (a Assessment, fill uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.refreshLocked(); err != nil {
		return Assessment{}, 0, err
	}
	if m.assessedValid && m.assessed.At <= t && t < m.assessedUntil {
		m.stats.AssessMemoHits++
		a = m.assessed
		a.At, a.Injection.At = t, t
		return a, m.assessedFill, nil
	}
	inj := m.injectLocked(t)
	m.fills++
	m.assessed = m.assessmentLocked(inj)
	m.assessedUntil, m.assessedValid, m.assessedFill = m.injector.NextBoundary(), true, m.fills
	return m.assessed, m.assessedFill, nil
}

// assessmentLocked judges one fault picture against the cached diversity
// report and the substrate. m.mu must be held and the caches fresh.
func (m *Monitor) assessmentLocked(inj vuln.Injection) Assessment {
	return Assessment{
		At:        inj.At,
		Diversity: m.report,
		Injection: inj,
		Substrate: m.substrate.Name,
		Threshold: m.substrate.Tolerance,
		Safe:      m.substrate.Safe(inj),
	}
}

// WorstAssessment sweeps the critical instants of [0, horizon] and returns
// the assessment at the adversary's best striking moment. The sweep is
// exact (event-driven over disclosure and patch-window boundaries), not
// sampled at a fixed step; see vuln.WorstWindow. Sweep and assessment
// happen against one snapshot, so a concurrent mutation cannot slip in
// between finding the worst instant and reporting it.
func (m *Monitor) WorstAssessment(horizon time.Duration) (Assessment, error) {
	a, _, err := m.WorstAssessmentMemo(horizon)
	return a, err
}

// WorstAssessmentMemo is WorstAssessment also reporting the sweep the
// result came from; see AssessMemo.
func (m *Monitor) WorstAssessmentMemo(horizon time.Duration) (a Assessment, fill uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.refreshLocked(); err != nil {
		return Assessment{}, 0, err
	}
	if m.worstValid && m.worstHorizon == horizon {
		return m.worst, m.worstFill, nil
	}
	var worst vuln.Injection
	if m.summaryFaults {
		worst, err = m.injector.WorstWindowSummary(horizon)
	} else {
		worst, err = m.injector.WorstWindow(horizon)
	}
	if err != nil {
		return Assessment{}, 0, err
	}
	instants, evaluated := m.injector.LastSweep()
	m.stats.WorstSweeps++
	m.stats.WorstInstants += uint64(instants)
	m.stats.WorstEvaluated += uint64(evaluated)
	m.fills++
	m.worst, m.worstHorizon, m.worstValid, m.worstFill = m.assessmentLocked(worst), horizon, true, m.fills
	return m.worst, m.worstFill, nil
}

// TwoTierOutcome compares the same population under face-value and
// two-tier (attestation-discounted) weighting — the paper's concluding
// proposal quantified.
type TwoTierOutcome struct {
	DeclaredDiscount float64
	Plain            Assessment
	Weighted         Assessment
}

// EvaluateTwoTier assesses the registry at time t under DefaultWeighting
// and under {Attested: 1, Declared: discount}.
func EvaluateTwoTier(reg *registry.Registry, catalog *vuln.Catalog, threshold float64, discount float64, t time.Duration) (TwoTierOutcome, error) {
	if discount < 0 || discount > 1 || math.IsNaN(discount) {
		return TwoTierOutcome{}, fmt.Errorf("core: discount %v out of [0,1]", discount)
	}
	plainMon, err := NewMonitor(reg, WithCatalog(catalog), WithSubstrate(Threshold(threshold)))
	if err != nil {
		return TwoTierOutcome{}, err
	}
	plain, err := plainMon.Assess(t)
	if err != nil {
		return TwoTierOutcome{}, err
	}
	w := registry.Weighting{Attested: 1, Declared: discount}
	if discount == 0 {
		// Fully zeroing declared replicas is allowed as long as attested
		// power exists; Weighting.Validate rejects the all-zero case only.
		attested, _, attestedPower, _ := reg.TierCounts()
		if attested == 0 || attestedPower == 0 {
			return TwoTierOutcome{}, errors.New("core: discount 0 with no attested power would zero the system")
		}
	}
	weightedMon, err := NewMonitor(reg, WithCatalog(catalog), WithWeighting(w), WithSubstrate(Threshold(threshold)))
	if err != nil {
		return TwoTierOutcome{}, err
	}
	weighted, err := weightedMon.Assess(t)
	if err != nil {
		return TwoTierOutcome{}, err
	}
	return TwoTierOutcome{DeclaredDiscount: discount, Plain: plain, Weighted: weighted}, nil
}

// AdmissionDecision is the admission policy's verdict for one joining
// replica. Permissionless systems cannot refuse membership, so the policy
// only assigns an effective vote weight.
type AdmissionDecision struct {
	Weight float64 // multiplier in [0, 1] applied to the replica's power
	Reason string
}

// AdmissionPolicy assigns join weights that keep any configuration from
// exceeding targetShare of effective power.
type AdmissionPolicy struct {
	// TargetShare is the per-configuration effective share ceiling.
	TargetShare float64
	// DeclaredDiscount multiplies unattested joins (two-tier rule).
	DeclaredDiscount float64
}

// Decide computes the weight for a replica with the given raw power and
// configuration label, against the current effective distribution d.
func (p AdmissionPolicy) Decide(d diversity.Distribution, label string, power float64, attested bool) (AdmissionDecision, error) {
	if p.TargetShare <= 0 || p.TargetShare > 1 {
		return AdmissionDecision{}, fmt.Errorf("core: target share %v out of (0,1]", p.TargetShare)
	}
	if p.DeclaredDiscount < 0 || p.DeclaredDiscount > 1 {
		return AdmissionDecision{}, fmt.Errorf("core: declared discount %v out of [0,1]", p.DeclaredDiscount)
	}
	if power < 0 || math.IsNaN(power) || math.IsInf(power, 0) {
		return AdmissionDecision{}, fmt.Errorf("core: invalid power %v", power)
	}
	weight := 1.0
	reason := "full weight"
	if !attested {
		weight = p.DeclaredDiscount
		reason = "declared tier discount"
	}
	current := d.Weight(label)
	total := d.Total()
	if total == 0 {
		// Bootstrap: the first joiner necessarily holds 100% of effective
		// power; capping is meaningless until a second configuration exists.
		return AdmissionDecision{Weight: weight, Reason: reason + " (bootstrap)"}, nil
	}
	effective := power * weight
	// Cap the configuration's post-join share at TargetShare:
	// (current + w·power) / (total + w·power) <= TargetShare.
	if total+effective > 0 {
		maxEffective := (p.TargetShare*total - current) / (1 - p.TargetShare)
		if maxEffective < 0 {
			maxEffective = 0
		}
		if effective > maxEffective {
			if power > 0 {
				weight = maxEffective / power
			} else {
				weight = 0
			}
			reason = "configuration share cap"
		}
	}
	return AdmissionDecision{Weight: weight, Reason: reason}, nil
}
