// Package liveloop closes the loop between the analytic monitor and a
// running consensus cluster: a timeline's `live` block (scenario.LiveSpec)
// attaches a real internal/bftlive protocol instance (the deterministic
// SimCluster transport over internal/simnet) to the scenario's run, through
// the hook this package registers with scenario.SetLiveAttach — import it,
// blank if need be, and live timelines run. The harness mirrors every
// scenario fault — partitions, crashes, vulnerability-driven compromises —
// onto the live cluster, and cross-checks the monitor's predictions against
// observed protocol behavior after every event:
//
//   - liveness: a committed probe value ⇔ the analytic view (registry
//     powers, partition/crash state, launched attacks) says a quorum of
//     voters can reach the primary;
//   - safety: an observed agreement violation ⇔ the monitor's assessment
//     at attack time said compromised power exceeded the tolerance.
//
// Mismatches are recorded as divergences in the trace (Record.Divergence).
// In reactive mode the harness also closes the control loop: when the
// assessment crosses the threshold it waits react_delay, then migrates
// still-exposed victims to clean configurations (internal/planner) and
// rejuvenates their implants (the internal/recovery cleansing model),
// recording the virtual time from threshold breach back to assessed-safe
// as the time-to-recover span on the trace.
//
// Everything — protocol messages, probes, attacks, reactions — runs on the
// scenario's single discrete-event scheduler, so a live scenario replays
// byte-identically from (timeline, seed) like every other scenario.
package liveloop

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bftlive"
	"repro/internal/config"
	"repro/internal/planner"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/vuln"
)

// pendingCheck carries one cross-check verdict from the event callback
// that computed it into the observer, which writes it onto that event's
// trace record.
type pendingCheck struct {
	check      string
	detail     string
	divergence bool
}

// harness wires one live cluster into one scenario run. Attach creates it;
// all further work happens through the engine's event callbacks and the
// Observer hook.
type harness struct {
	spec    scenario.LiveSpec // defaults filled in
	targets *config.Catalog   // the spec's migration targets; nil: rejuvenation only
	horizon time.Duration

	started bool
	ids     []registry.ReplicaID
	idx     map[registry.ReplicaID]int
	net     *simnet.Network
	cluster *bftlive.SimCluster

	partitioned map[int]bool
	crashed     map[int]bool
	implants    map[int]bool // compromised per the monitor; sticky until cleansed
	attacked    map[int]bool // implants whose Byzantine behavior is live
	assessed    map[int]bool // the monitor's *current* compromised set (not sticky)

	probeExpect map[int]bool // probe index -> commit expected
	probeValue  func(k int) string

	attackScheduled bool
	attackLaunched  bool
	attackExpect    bool // equivocate: violation expected; silence: commit expected

	inBreach bool
	breachAt time.Duration

	pending *pendingCheck
}

// init registers the live-attach hook: a timeline carrying a LiveSpec boots
// the harness without scenario importing this package.
func init() { scenario.SetLiveAttach(Attach) }

// Attach creates a harness on the engine per the timeline's (validated)
// live block: the cluster comes up at start_at, probes and the explicit
// attack (if any) are scheduled, and the harness registers itself as the
// run's observer. What the spec alone cannot show — at least four replicas,
// of equal power, at start_at — fails the run at that instant.
func Attach(e *scenario.Engine, spec *scenario.LiveSpec) error {
	targets, err := spec.TargetCatalog()
	if err != nil {
		return err
	}
	h := &harness{
		spec:        spec.WithDefaults(),
		targets:     targets,
		horizon:     e.Horizon(),
		idx:         make(map[registry.ReplicaID]int),
		partitioned: make(map[int]bool),
		crashed:     make(map[int]bool),
		implants:    make(map[int]bool),
		attacked:    make(map[int]bool),
		assessed:    make(map[int]bool),
		probeExpect: make(map[int]bool),
		probeValue:  func(k int) string { return fmt.Sprintf("probe-%04d", k) },
	}
	e.Observe(h)
	startAt, every, deadline := h.spec.StartAt.D(), h.spec.ProbeEvery.D(), h.spec.ProbeDeadline.D()
	if err := e.At(startAt, "live-start", h.start); err != nil {
		return err
	}
	if every > 0 {
		k := 0
		for t := startAt + every; t+deadline < e.Horizon(); t += every {
			k++
			probe := k
			if err := e.At(t, "live-probe", func(e *scenario.Engine) (string, error) {
				return h.probe(e, probe)
			}); err != nil {
				return err
			}
			if err := e.At(t+deadline, "live-check", func(e *scenario.Engine) (string, error) {
				return h.check(e, probe)
			}); err != nil {
				return err
			}
		}
	}
	if h.spec.AttackAt > 0 {
		h.attackScheduled = true
		if err := h.scheduleAttack(e, h.spec.AttackAt.D()); err != nil {
			return err
		}
	}
	return nil
}

// start brings the cluster up against the membership as it stands.
func (h *harness) start(e *scenario.Engine) (string, error) {
	snap, err := e.Registry().Snapshot(registry.DefaultWeighting)
	if err != nil {
		return "", err
	}
	replicas := snap.Replicas()
	n := len(replicas)
	if n < 4 {
		return "", fmt.Errorf("liveloop: need at least 4 replicas at StartAt, have %d", n)
	}
	for i, r := range replicas {
		if r.Power != replicas[0].Power || r.Power <= 0 {
			return "", fmt.Errorf("liveloop: replica %s power %v breaks the equal-power contract", r.Name, r.Power)
		}
		h.ids = append(h.ids, registry.ReplicaID(r.Name))
		h.idx[registry.ReplicaID(r.Name)] = i
	}
	net, err := simnet.New(e.Scheduler(), simnet.FixedLatency(h.spec.Latency.D()), 0)
	if err != nil {
		return "", err
	}
	var opts []bftlive.SimOption
	if h.spec.ViewTimeout > 0 {
		opts = append(opts, bftlive.SimWithViewTimeout(h.spec.ViewTimeout.D()))
	}
	cluster, err := bftlive.NewSimCluster(net, n, opts...)
	if err != nil {
		return "", err
	}
	h.net = net
	h.cluster = cluster
	h.started = true
	detail := fmt.Sprintf("cluster up: n=%d quorum=%d primary=%s latency=%v",
		n, cluster.Quorum(), h.ids[0], h.spec.Latency)
	if h.spec.ViewTimeout > 0 {
		detail += fmt.Sprintf(" view-timeout=%v", h.spec.ViewTimeout)
	}
	return detail, nil
}

// probe submits a liveness probe and freezes the analytic expectation for
// its verdict.
func (h *harness) probe(_ *scenario.Engine, k int) (string, error) {
	if !h.started {
		return "", errors.New("liveloop: probe before start")
	}
	expect, voters := h.predictCommit()
	h.probeExpect[k] = expect
	h.cluster.Submit([]byte(h.probeValue(k)))
	return fmt.Sprintf("%s submitted (predict commit=%t voters=%d quorum=%d)",
		h.probeValue(k), expect, voters, h.cluster.Quorum()), nil
}

// check judges a probe: observation against the frozen prediction.
func (h *harness) check(_ *scenario.Engine, k int) (string, error) {
	if !h.started {
		return "", errors.New("liveloop: check before start")
	}
	expect := h.probeExpect[k]
	committed := h.cluster.CommittedBy([]byte(h.probeValue(k)))
	observed := committed > 0
	detail := fmt.Sprintf("%s predicted=%t observed=%t committers=%d",
		h.probeValue(k), expect, observed, committed)
	h.pending = &pendingCheck{check: "liveness", detail: detail, divergence: observed != expect}
	return detail, nil
}

// predictCommit is the analytic liveness prediction: commits happen iff
// the primary can vote and its partition side holds a quorum of voters.
// Crashed replicas cannot vote; once a silence attack is live, the
// replicas the *monitor currently* assesses as compromised are predicted
// mute — the prediction is grounded in the analytic view, so an implant
// surviving past its exploit window (which the monitor no longer sees)
// shows up as a divergence, not as a corrected forecast. Equivocating
// replicas still vote — promiscuously.
//
// With rotation enabled (ViewTimeout > 0) the prediction is view-aware: a
// dead current primary no longer dooms the probe, because a stalled
// cluster elects primary v mod n. The probe is predicted to commit iff
// some view reachable within the probe deadline — budgeting one view
// timeout plus protocol round-trips per rotation — has a votable primary
// whose partition side holds a quorum.
func (h *harness) predictCommit() (ok bool, voters int) {
	p := h.cluster.Primary()
	silenceLive := h.attackLaunched && h.spec.Attack == scenario.AttackSilence
	silent := func(i int) bool {
		return h.crashed[i] || (silenceLive && h.assessed[i])
	}
	sideVoters := func(side bool) int {
		v := 0
		for i := range h.ids {
			if h.partitioned[i] == side && !silent(i) {
				v++
			}
		}
		return v
	}
	voters = sideVoters(h.partitioned[p])
	if !silent(p) && voters >= h.cluster.Quorum() {
		return true, voters
	}
	if h.spec.ViewTimeout <= 0 {
		return false, voters
	}
	n := h.cluster.N()
	view := h.cluster.View()
	rotation := (h.spec.ViewTimeout + 6*h.spec.Latency).D()
	for k := uint64(1); time.Duration(k+1)*rotation <= h.spec.ProbeDeadline.D(); k++ {
		cand := int((view + k) % uint64(n))
		if !silent(cand) && sideVoters(h.partitioned[cand]) >= h.cluster.Quorum() {
			return true, voters
		}
	}
	return false, voters
}

// scheduleAttack arms the attack and its verdict check.
func (h *harness) scheduleAttack(e *scenario.Engine, at time.Duration) error {
	if err := e.At(at, "live-attack", h.attack); err != nil {
		return err
	}
	return e.At(at+h.spec.ProbeDeadline.D(), "live-verdict", h.verdict)
}

// attack pulls the trigger on every implanted replica per the configured
// mode and freezes the monitor-grounded prediction for the verdict.
func (h *harness) attack(e *scenario.Engine) (string, error) {
	if !h.started {
		return "", errors.New("liveloop: attack before start")
	}
	now := e.Scheduler().Now()
	a, err := e.Monitor().Assess(now)
	if err != nil {
		return "", err
	}
	victims := h.implantIndices()
	h.attackLaunched = true
	h.syncAssessed(a.Injection.Faults)
	switch h.spec.Attack {
	case scenario.AttackEquivocate:
		// Violation predicted iff the monitor says compromised power
		// exceeds the tolerance (and the adversary holds the *current*
		// primary — under rotation that is the latest installed view's).
		p := h.cluster.Primary()
		h.attackExpect = !a.Safe && h.implants[p]
		if len(victims) == 0 || !h.implants[p] {
			return fmt.Sprintf("equivocation skipped: implants=%d primary-implanted=%t (predict violation=%t)",
				len(victims), h.implants[p], h.attackExpect), nil
		}
		for _, i := range victims {
			h.attacked[i] = true
			if err := h.cluster.SetBehavior(i, bftlive.Promiscuous); err != nil {
				return "", err
			}
		}
		if err := h.cluster.EquivocateNext([]byte("attack-left"), []byte("attack-right")); err != nil {
			return "", err
		}
		return fmt.Sprintf("equivocation launched via %d implants (predict violation=%t, monitor compromised=%s)",
			len(victims), h.attackExpect, fmtFrac(a.Injection.TotalFraction)), nil
	case scenario.AttackSilence:
		for _, i := range victims {
			h.attacked[i] = true
			if err := h.cluster.SetBehavior(i, bftlive.Silent); err != nil {
				return "", err
			}
		}
		expect, voters := h.predictCommit()
		h.attackExpect = expect
		h.cluster.Submit([]byte("attack-probe"))
		return fmt.Sprintf("silence launched via %d implants (predict commit=%t voters=%d)",
			len(victims), expect, voters), nil
	default:
		return "", fmt.Errorf("liveloop: unknown attack mode %q", h.spec.Attack)
	}
}

// verdict judges the attack outcome against the frozen prediction.
func (h *harness) verdict(_ *scenario.Engine) (string, error) {
	if !h.started || !h.attackLaunched {
		return "", errors.New("liveloop: verdict before attack")
	}
	var detail string
	var divergence bool
	switch h.spec.Attack {
	case scenario.AttackSilence:
		committed := h.cluster.CommittedBy([]byte("attack-probe"))
		observed := committed > 0
		divergence = observed != h.attackExpect
		detail = fmt.Sprintf("attack-probe predicted=%t observed=%t committers=%d",
			h.attackExpect, observed, committed)
	default:
		observed := h.cluster.Violation() != nil
		divergence = observed != h.attackExpect
		detail = fmt.Sprintf("violation predicted=%t observed=%t", h.attackExpect, observed)
		if v := h.cluster.Violation(); v != nil {
			detail += " (" + v.String() + ")"
		}
	}
	h.pending = &pendingCheck{check: "safety", detail: detail, divergence: divergence}
	return detail, nil
}

// react is one reactive-recovery round: migrate still-exposed implanted
// replicas to clean configurations, cleanse every implant, restore honest
// behavior. The observer re-arms it while the breach persists.
func (h *harness) react(e *scenario.Engine) (string, error) {
	if !h.started {
		return "", errors.New("liveloop: react before start")
	}
	now := e.Scheduler().Now()
	victims := h.implantIndices()
	if len(victims) == 0 {
		return "no implants to cleanse", nil
	}
	var exposed []int
	for _, i := range victims {
		rec, ok := e.Registry().Get(h.ids[i])
		if !ok {
			return "", fmt.Errorf("liveloop: implanted replica %s missing", h.ids[i])
		}
		if configExposed(e.Catalog(), rec.Config, now, rec.PatchLatency) {
			exposed = append(exposed, i)
		}
	}
	var parts []string
	if len(exposed) > 0 && h.targets != nil {
		clean, err := cleanTargets(h.targets, e.Catalog())
		if err != nil {
			return "", err
		}
		assigned, err := planner.GreedyAssign(clean, len(exposed))
		if err != nil {
			return "", err
		}
		for j, i := range exposed {
			if err := e.Registry().Migrate(h.ids[i], assigned[j]); err != nil {
				return "", err
			}
			parts = append(parts, fmt.Sprintf("%s->%s", h.ids[i], assigned[j].Digest().Short()))
		}
	}
	for _, i := range victims {
		delete(h.implants, i)
		delete(h.attacked, i)
		if !h.crashed[i] {
			if err := h.cluster.SetBehavior(i, bftlive.Honest); err != nil {
				return "", err
			}
		}
		parts = append(parts, fmt.Sprintf("%s rejuvenated", h.ids[i]))
	}
	return fmt.Sprintf("recovery round: %s", strings.Join(parts, " ")), nil
}

// syncAssessed rebuilds the non-sticky compromised set from a fault list.
func (h *harness) syncAssessed(faults []vuln.Fault) {
	h.assessed = make(map[int]bool)
	for _, f := range faults {
		for _, name := range f.Compromised {
			if i, ok := h.idx[registry.ReplicaID(name)]; ok {
				h.assessed[i] = true
			}
		}
	}
}

// implantIndices returns the implanted replica indices in ascending order.
func (h *harness) implantIndices() []int {
	out := make([]int, 0, len(h.implants))
	for i := range h.implants {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// byzFraction is the fraction of replicas currently running a non-honest
// behavior on the live cluster.
func (h *harness) byzFraction() float64 {
	if h.cluster == nil {
		return 0
	}
	n := h.cluster.N()
	byz := 0
	for i := 0; i < n; i++ {
		if h.cluster.BehaviorOf(i) != bftlive.Honest {
			byz++
		}
	}
	return float64(byz) / float64(n)
}

// AfterEvent implements scenario.Observer: mirror the event onto the live
// cluster, sync implants from the assessment, annotate the record, and
// drive the breach/recovery state machine.
func (h *harness) AfterEvent(e *scenario.Engine, info scenario.EventInfo, rec *scenario.Record) error {
	if !h.started {
		return nil // pre-start records stay untouched
	}
	now := e.Scheduler().Now()
	switch info.Kind {
	case "join", "leave":
		return fmt.Errorf("liveloop: %s after the live cluster started (fixed membership)", info.Kind)
	case "partition":
		for _, id := range info.IDs {
			i, ok := h.idx[id]
			if !ok {
				return fmt.Errorf("liveloop: partition of unknown replica %s", id)
			}
			h.partitioned[i] = true
		}
		h.applyPartitions()
	case "heal":
		h.partitioned = make(map[int]bool)
		h.applyPartitions()
	case "crash":
		for _, id := range info.IDs {
			i, ok := h.idx[id]
			if !ok {
				return fmt.Errorf("liveloop: crash of unknown replica %s", id)
			}
			h.crashed[i] = true
			if err := h.cluster.SetBehavior(i, bftlive.Silent); err != nil {
				return err
			}
		}
	case "degrade":
		a, b, err := h.linkEndpoints(info)
		if err != nil {
			return err
		}
		if info.Fault == nil {
			return errors.New("liveloop: degrade event without a fault model")
		}
		f := simnet.Fault{
			Drop:         info.Fault.Drop,
			ExtraLatency: info.Fault.ExtraLatency.D(),
			Jitter:       info.Fault.Jitter.D(),
			Duplicate:    info.Fault.Duplicate,
			Reorder:      info.Fault.Reorder,
		}
		if err := h.setLink(a, b, f); err != nil {
			return err
		}
	case "restore-link":
		a, b, err := h.linkEndpoints(info)
		if err != nil {
			return err
		}
		if err := h.setLink(a, b, simnet.Fault{}); err != nil {
			return err
		}
	case "restore":
		for _, id := range info.IDs {
			i, ok := h.idx[id]
			if !ok {
				return fmt.Errorf("liveloop: restore of unknown replica %s", id)
			}
			delete(h.crashed, i)
			b := bftlive.Honest
			if h.attacked[i] {
				if h.spec.Attack == scenario.AttackSilence {
					b = bftlive.Silent
				} else {
					b = bftlive.Promiscuous
				}
			}
			if err := h.cluster.SetBehavior(i, b); err != nil {
				return err
			}
		}
	}

	// Implants follow the monitor's compromised set and stick until a
	// recovery round cleanses them: an exploit window closing does not
	// evict an adversary who is already inside. The non-sticky assessed
	// set tracks what the monitor believes *right now* and grounds the
	// liveness predictions.
	if rec.Power > 0 {
		a, err := e.Monitor().Assess(now)
		if err != nil {
			return err
		}
		h.syncAssessed(a.Injection.Faults)
		for i := range h.assessed {
			h.implants[i] = true
		}
	}

	if h.pending != nil {
		rec.Check = h.pending.check
		rec.CheckDetail = h.pending.detail
		rec.Divergence = h.pending.divergence
		h.pending = nil
	}
	rec.Live = true
	rec.LiveCommits = h.cluster.CommitCount()
	rec.LiveByzFrac = h.byzFraction()
	rec.LiveViolation = h.cluster.Violation() != nil
	rec.LiveView = h.cluster.View()
	rec.ViewChanges = h.cluster.ViewChanges()

	if !rec.Safe && !h.inBreach {
		h.inBreach = true
		h.breachAt = now
		rec.BreachAtNanos = int64(now)
		if h.spec.AttackAt == 0 && !h.attackScheduled && now+h.spec.ProbeDeadline.D() < h.horizon {
			h.attackScheduled = true
			if err := h.scheduleAttack(e, now); err != nil {
				return err
			}
		}
		if h.spec.Reactive && now+h.spec.ReactDelay.D() < h.horizon {
			if err := e.At(now+h.spec.ReactDelay.D(), "live-react", h.react); err != nil {
				return err
			}
		}
	} else if h.inBreach && rec.Safe && len(h.implants) == 0 {
		h.inBreach = false
		rec.RecoverAtNanos = int64(now)
		rec.RecoverNanos = int64(now - h.breachAt)
	}
	// Re-arm the recovery loop while the breach persists.
	if info.Kind == "live-react" && h.inBreach && h.spec.Reactive && now+h.spec.ReactDelay.D() < h.horizon {
		if err := e.At(now+h.spec.ReactDelay.D(), "live-react", h.react); err != nil {
			return err
		}
	}
	return nil
}

// linkEndpoints resolves a degrade/restore-link event's two endpoints to
// replica indices.
func (h *harness) linkEndpoints(info scenario.EventInfo) (int, int, error) {
	if len(info.IDs) != 2 {
		return 0, 0, fmt.Errorf("liveloop: %s event with %d endpoints", info.Kind, len(info.IDs))
	}
	a, aok := h.idx[info.IDs[0]]
	b, bok := h.idx[info.IDs[1]]
	if !aok || !bok {
		return 0, 0, fmt.Errorf("liveloop: %s of unknown link %s<->%s", info.Kind, info.IDs[0], info.IDs[1])
	}
	return a, b, nil
}

// setLink applies a fault model to both directions of a link (a zero fault
// restores the link to clean).
func (h *harness) setLink(a, b int, f simnet.Fault) error {
	for _, dir := range [2][2]int{{a, b}, {b, a}} {
		if err := h.net.SetLinkFault(simnet.NodeID(dir[0]), simnet.NodeID(dir[1]), f); err != nil {
			return err
		}
	}
	return nil
}

// applyPartitions pushes the harness's partition set onto the network.
func (h *harness) applyPartitions() {
	if len(h.partitioned) == 0 {
		h.net.SetPartitions()
		return
	}
	cut := make([]simnet.NodeID, 0, len(h.partitioned))
	for i := range h.partitioned {
		cut = append(cut, simnet.NodeID(i))
	}
	sort.Slice(cut, func(i, j int) bool { return cut[i] < cut[j] })
	h.net.SetPartitions(cut)
}

// configExposed reports whether any disclosed vulnerability's exploit
// window is open against the configuration at time t.
func configExposed(catalog *vuln.Catalog, cfg config.Configuration, t, patchLatency time.Duration) bool {
	for _, v := range catalog.All() {
		if !v.WindowOpenAt(t, patchLatency) {
			continue
		}
		if componentMatches(v, cfg) {
			return true
		}
	}
	return false
}

// componentMatches reports whether the vulnerability names a component of
// the configuration.
func componentMatches(v vuln.Vulnerability, cfg config.Configuration) bool {
	c, ok := cfg.Component(v.Class)
	if !ok {
		return false
	}
	return c.Name == v.Product && (v.Version == "" || v.Version == c.Version)
}

// cleanTargets filters a target catalog down to components no disclosed
// vulnerability names — the migration destinations reactive recovery may
// use.
func cleanTargets(targets *config.Catalog, catalog *vuln.Catalog) (*config.Catalog, error) {
	clean := config.NewCatalog()
	kept := 0
	for _, class := range config.Classes() {
		for _, c := range targets.Choices(class) {
			dirty := false
			for _, v := range catalog.All() {
				if v.Class == c.Class && v.Product == c.Name && (v.Version == "" || v.Version == c.Version) {
					dirty = true
					break
				}
			}
			if dirty {
				continue
			}
			if err := clean.Add(c); err != nil {
				return nil, err
			}
			kept++
		}
	}
	if kept == 0 {
		return nil, errors.New("liveloop: no clean migration targets left")
	}
	return clean, nil
}

// fmtFrac renders a fraction with the deterministic shortest form.
func fmtFrac(f float64) string { return fmt.Sprintf("%.4f", f) }
