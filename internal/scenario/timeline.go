package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/registry"
	"repro/internal/vuln"
)

// Timeline is a scenario as data: an ordered list of typed events over the
// engine's grammar, plus the horizon and tick cadence a run needs. It is the
// one way to program a run — the named library, generated timelines, shrunk
// counterexamples and hand-written files are all Timeline values — so every
// scenario can be serialized, stored, replayed, diffed and shrunk.
//
// The JSON encoding is the spec the README documents: durations are Go
// duration strings ("36h0m0s"), configurations are component lists with
// classes by canonical name, and fields are emitted in struct order, so a
// marshalled timeline round-trips byte-identically.
type Timeline struct {
	// Name identifies the timeline; it doubles as the scenario name in the
	// trace and feeds the per-scenario seed derivation (DeriveSeed), so a
	// renamed timeline is a different run.
	Name string `json:"name"`
	// Title is the optional human description.
	Title string `json:"title,omitempty"`
	// Tags classify the timeline for listings (generated timelines carry
	// their profile name).
	Tags []string `json:"tags,omitempty"`
	// Horizon is the virtual duration of the run; Tick the periodic
	// assessment cadence (0 defaults to Horizon/24 like Def.Tick).
	Horizon Duration `json:"horizon"`
	Tick    Duration `json:"tick,omitempty"`
	// Live, when set, attaches the live BFT harness (internal/liveloop)
	// to the run via the hook registered with SetLiveAttach. Omitted for
	// analytic-only timelines, so old artifacts are byte-identical.
	Live *LiveSpec `json:"live,omitempty"`
	// Events is the timeline, ascending by At. Validate enforces the
	// ordering so diffs and shrinking operate on a canonical form.
	Events []Event `json:"events"`
}

// LiveSpec is the live harness's whole configuration: when the cluster
// boots, its wire and probe cadences, what the adversary's implants do once
// triggered, and the reactive-recovery loop. Every key but start_at is
// omitempty and WithDefaults names what an omitted one means, so an artifact
// written before a key existed parses, re-marshals and runs as before.
type LiveSpec struct {
	// StartAt is the virtual instant the live cluster comes up. The
	// membership must be final before then: the cluster boots ahead of any
	// timeline event at StartAt itself, and a join or leave after it aborts
	// the run (the runtime cluster has fixed membership).
	StartAt Duration `json:"start_at"`
	// Latency is the fixed one-way message latency (default 20ms).
	Latency Duration `json:"latency,omitempty"`
	// ProbeEvery is the liveness-probe cadence; 0 disables probes.
	ProbeEvery Duration `json:"probe_every,omitempty"`
	// ProbeDeadline is how long after a probe (or attack) the harness waits
	// before judging the outcome (default 500ms).
	ProbeDeadline Duration `json:"probe_deadline,omitempty"`
	// ViewTimeout, when positive, turns on primary rotation: a stalled
	// cluster elects primary v mod n. 0 keeps the fixed primary.
	ViewTimeout Duration `json:"view_timeout,omitempty"`
	// Attack is what implanted replicas do when the attack launches:
	// AttackEquivocate (the default) or AttackSilence.
	Attack string `json:"attack,omitempty"`
	// AttackAt schedules the attack explicitly; 0 launches it at the first
	// threshold breach.
	AttackAt Duration `json:"attack_at,omitempty"`
	// Reactive enables the recovery loop: ReactDelay after a breach the
	// harness migrates still-exposed implanted replicas to clean
	// configurations drawn from Targets (none: rejuvenation only) and
	// cleanses their implants, every ReactDelay until the assessment is safe.
	Reactive   bool            `json:"reactive,omitempty"`
	ReactDelay Duration        `json:"react_delay,omitempty"`
	Targets    []ComponentSpec `json:"targets,omitempty"`
}

// Attack modes of a LiveSpec.
const (
	// AttackEquivocate turns implanted replicas promiscuous and has an
	// implanted primary propose two conflicting values — the safety attack.
	AttackEquivocate = "equivocate"
	// AttackSilence mutes implanted replicas — the liveness attack.
	AttackSilence = "silence"
)

// WithDefaults returns the spec with every omitted key that has a default
// filled in — the one place those defaults live, for Validate and the
// harness alike.
func (s LiveSpec) WithDefaults() LiveSpec {
	if s.Latency <= 0 {
		s.Latency = Duration(20 * time.Millisecond)
	}
	if s.ProbeDeadline <= 0 {
		s.ProbeDeadline = Duration(500 * time.Millisecond)
	}
	if s.Attack == "" {
		s.Attack = AttackEquivocate
	}
	return s
}

// TargetCatalog materializes the migration targets (nil when there are none).
func (s LiveSpec) TargetCatalog() (*config.Catalog, error) {
	if len(s.Targets) == 0 {
		return nil, nil
	}
	cat := config.NewCatalog()
	for _, t := range s.Targets {
		c, err := t.component()
		if err != nil {
			return nil, err
		}
		if err := cat.Add(c); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// validate checks the whole live block against the run's horizon, so a bad
// one fails when the timeline is parsed. What is left for the harness to
// reject depends on the run: the membership at StartAt.
func (s LiveSpec) validate(horizon Duration) error {
	if s.StartAt < 0 || s.StartAt >= horizon {
		return fmt.Errorf("live start %v outside [0, %v)", s.StartAt, horizon)
	}
	if s.Latency < 0 || s.ProbeEvery < 0 || s.ProbeDeadline < 0 || s.ViewTimeout < 0 || s.AttackAt < 0 || s.ReactDelay < 0 {
		return errors.New("negative live cadence")
	}
	if s.Attack != "" && s.Attack != AttackEquivocate && s.Attack != AttackSilence {
		return fmt.Errorf("live attack %q is neither %s nor %s", s.Attack, AttackEquivocate, AttackSilence)
	}
	if s.Reactive && s.ReactDelay <= 0 {
		return errors.New("live reactive recovery needs a positive react_delay")
	}
	if deadline := s.WithDefaults().ProbeDeadline; s.AttackAt > 0 && (s.AttackAt <= s.StartAt || s.AttackAt+deadline >= horizon) {
		return fmt.Errorf("live attack_at %v outside (%v, %v)", s.AttackAt, s.StartAt, horizon-deadline)
	}
	if _, err := s.TargetCatalog(); err != nil {
		return fmt.Errorf("live targets: %w", err)
	}
	return nil
}

// liveAttach is the hook a live harness registers so a timeline can boot it
// without scenario importing the harness (which imports scenario).
// internal/liveloop installs the real hook in its init.
var liveAttach func(e *Engine, spec *LiveSpec) error

// SetLiveAttach registers the live-harness hook used by Timeline.Apply
// when a timeline carries a LiveSpec.
func SetLiveAttach(fn func(*Engine, *LiveSpec) error) { liveAttach = fn }

// Duration is a time.Duration that marshals as its String form, keeping
// timeline JSON human-readable ("36h0m0s" rather than 129600000000000).
// Unmarshalling accepts both the string form and raw nanoseconds.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON encodes the duration as its canonical string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON decodes either a duration string or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("scenario: duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Event ops: the engine's whole grammar.
const (
	OpJoin        = "join"
	OpLeave       = "leave"
	OpPower       = "power"
	OpMigrate     = "migrate"
	OpDisclose    = "disclose"
	OpPartition   = "partition"
	OpHeal        = "heal"
	OpCrash       = "crash"
	OpRestore     = "restore"
	OpProbe       = "probe"
	OpDegrade     = "degrade"
	OpRestoreLink = "restore-link"
	OpRotate      = "rotate"
)

// Event is one typed timeline entry. Exactly the fields its op uses are
// set: Validate rejects any other (see opOperands), so a serialized timeline
// cannot carry state the run would silently drop. The zero fields are
// omitted from JSON, keeping generated artifacts small and diffs readable.
type Event struct {
	// Op is the event kind (the Op* constants).
	Op string `json:"op"`
	// At is the virtual instant the event fires. For disclose events it
	// must equal Vuln.Disclosed (the engine schedules disclosures at their
	// disclosure instant).
	At Duration `json:"at"`

	// ID names the replica for join/leave/power/migrate.
	ID string `json:"id,omitempty"`
	// IDs names the replicas for partition/crash, the link endpoints for
	// degrade/restore-link (exactly two), and optionally restore (empty =
	// every crashed replica).
	IDs []string `json:"ids,omitempty"`
	// Config is the replica configuration for join/migrate.
	Config []ComponentSpec `json:"config,omitempty"`
	// Power is the voting power for join (> 0 required there) and power.
	Power float64 `json:"power,omitempty"`
	// PatchLatency is the join's patch adoption lag.
	PatchLatency Duration `json:"patch_latency,omitempty"`
	// Vuln describes the disclosure for disclose events.
	Vuln *VulnSpec `json:"vuln,omitempty"`
	// Strategy describes the adversary for probe events.
	Strategy *StrategySpec `json:"strategy,omitempty"`
	// Fault describes the link degradation for degrade events.
	Fault *FaultSpec `json:"fault,omitempty"`
	// Size is the committee size for rotate events: a diversity-aware
	// selection (committee.SelectDiverse) of that many replicas over the
	// membership, whose entropy lands in the record's detail.
	Size int `json:"size,omitempty"`
}

// Operand fields of an Event, as bits: opOperands says which of them each op
// may set.
const (
	fID = 1 << iota
	fIDs
	fConfig
	fPower
	fPatchLatency
	fVuln
	fStrategy
	fFault
	fSize
)

// operandNames are the operand fields' JSON keys, in bit order.
var operandNames = [...]string{"id", "ids", "config", "power", "patch_latency", "vuln", "strategy", "fault", "size"}

var opOperands = map[string]uint{
	OpJoin:        fID | fConfig | fPower | fPatchLatency,
	OpLeave:       fID,
	OpPower:       fID | fPower,
	OpMigrate:     fID | fConfig,
	OpDisclose:    fVuln,
	OpPartition:   fIDs,
	OpHeal:        0,
	OpCrash:       fIDs,
	OpRestore:     fIDs,
	OpProbe:       fStrategy,
	OpDegrade:     fIDs | fFault,
	OpRestoreLink: fIDs,
	OpRotate:      fSize,
}

// operands reports which operand fields the event sets.
func (ev *Event) operands() (set uint) {
	for i, isSet := range [...]bool{
		ev.ID != "", len(ev.IDs) > 0, len(ev.Config) > 0, ev.Power != 0, ev.PatchLatency != 0,
		ev.Vuln != nil, ev.Strategy != nil, ev.Fault != nil, ev.Size != 0,
	} {
		if isSet {
			set |= 1 << i
		}
	}
	return set
}

// FaultSpec is a degraded link's fault model: the scenario grammar's mirror
// of simnet.Fault, field for field, kept separate so the analytic engine does
// not depend on the wire package.
type FaultSpec struct {
	Drop         float64  `json:"drop,omitempty"`          // extra per-message loss probability, [0, 1)
	ExtraLatency Duration `json:"extra_latency,omitempty"` // constant added delay
	Jitter       Duration `json:"jitter,omitempty"`        // uniform random added delay in [0, Jitter]
	Duplicate    float64  `json:"duplicate,omitempty"`     // probability of a second delivery, [0, 1]
	Reorder      float64  `json:"reorder,omitempty"`       // probability of a hold-back, [0, 1]
}

// Validate applies the same domain rules as simnet.Fault.Validate.
func (f FaultSpec) Validate() error {
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
func (f FaultSpec) String() string {
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

// ComponentSpec is the serializable form of one config.Component.
type ComponentSpec struct {
	Class   string `json:"class"`
	Name    string `json:"name"`
	Version string `json:"version"`
}

// component materializes the spec.
func (s ComponentSpec) component() (config.Component, error) {
	class, err := config.ParseClass(s.Class)
	return config.Component{Class: class, Name: s.Name, Version: s.Version}, err
}

// BuildConfiguration materializes the spec list into a config.Configuration.
func BuildConfiguration(specs []ComponentSpec) (config.Configuration, error) {
	var buf [8]config.Component
	components := buf[:0]
	for _, s := range specs {
		c, err := s.component()
		if err != nil {
			return config.Configuration{}, err
		}
		components = append(components, c)
	}
	return config.New(components...)
}

// checkConfiguration reports the error BuildConfiguration would return for
// specs, without building anything: an unknown class anywhere in the list
// first, then the first component config.New would reject.
func checkConfiguration(specs []ComponentSpec) error {
	var invalid error
	for _, s := range specs {
		c, err := s.component()
		if err != nil {
			return err
		}
		if invalid == nil {
			invalid = c.Validate()
		}
	}
	return invalid
}

// VulnSpec is the serializable form of one vuln.Vulnerability.
type VulnSpec struct {
	ID        string   `json:"id"`
	Class     string   `json:"class"`
	Product   string   `json:"product"`
	Version   string   `json:"version,omitempty"`
	Disclosed Duration `json:"disclosed"`
	PatchAt   Duration `json:"patch_at"`
	Severity  float64  `json:"severity"`
}

// Vulnerability materializes the spec.
func (s VulnSpec) Vulnerability() (vuln.Vulnerability, error) {
	class, err := config.ParseClass(s.Class)
	if err != nil {
		return vuln.Vulnerability{}, err
	}
	return vuln.Vulnerability{
		ID: vuln.ID(s.ID), Class: class, Product: s.Product, Version: s.Version,
		Disclosed: s.Disclosed.D(), PatchAt: s.PatchAt.D(), Severity: s.Severity,
	}, nil
}

// NewVulnSpec serializes a vulnerability.
func NewVulnSpec(v vuln.Vulnerability) VulnSpec {
	return VulnSpec{
		ID: string(v.ID), Class: v.Class.String(), Product: v.Product, Version: v.Version,
		Disclosed: Duration(v.Disclosed), PatchAt: Duration(v.PatchAt), Severity: v.Severity,
	}
}

// StrategySpec is the serializable form of an adversary strategy: exploit
// and corruption carry a budget; adaptive composes sub-strategies.
type StrategySpec struct {
	Kind       string         `json:"kind"` // exploit | corruption | adaptive
	Budget     int            `json:"budget,omitempty"`
	Strategies []StrategySpec `json:"strategies,omitempty"`
}

// Strategy materializes the spec into an adversary.Strategy.
func (s StrategySpec) Strategy() (adversary.Strategy, error) {
	switch s.Kind {
	case "exploit":
		return adversary.ExploitStrategy{Budget: s.Budget}, nil
	case "corruption":
		return adversary.CorruptionStrategy{Budget: s.Budget}, nil
	case "adaptive":
		if len(s.Strategies) == 0 {
			return nil, errors.New("scenario: adaptive strategy needs sub-strategies")
		}
		subs := make([]adversary.Strategy, 0, len(s.Strategies))
		for _, sub := range s.Strategies {
			st, err := sub.Strategy()
			if err != nil {
				return nil, err
			}
			subs = append(subs, st)
		}
		return adversary.AdaptiveStrategy{Strategies: subs}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown strategy kind %q", s.Kind)
	}
}

// Validate checks a timeline's structural invariants: canonical ordering,
// per-op field completeness, and in-horizon times. It does NOT simulate the
// run — semantic errors (partitioning a replica that already left, a
// duplicate join) surface when the run executes.
func (tl *Timeline) Validate() error {
	if tl == nil {
		return errors.New("scenario: nil timeline")
	}
	if tl.Name == "" {
		return errors.New("scenario: timeline without a name")
	}
	if tl.Horizon <= 0 {
		return fmt.Errorf("scenario: timeline %s: non-positive horizon %v", tl.Name, tl.Horizon)
	}
	if tl.Tick < 0 {
		return fmt.Errorf("scenario: timeline %s: negative tick %v", tl.Name, tl.Tick)
	}
	if tl.Live != nil {
		if err := tl.Live.validate(tl.Horizon); err != nil {
			return fmt.Errorf("scenario: timeline %s: %w", tl.Name, err)
		}
	}
	var prev Duration
	for i := range tl.Events {
		ev := &tl.Events[i]
		if err := tl.validateEvent(ev); err != nil {
			return fmt.Errorf("scenario: timeline %s: event %d: %w", tl.Name, i, err)
		}
		if ev.At < prev {
			return fmt.Errorf("scenario: timeline %s: event %d at %v precedes event %d at %v",
				tl.Name, i, ev.At, i-1, prev)
		}
		prev = ev.At
	}
	return nil
}

func (tl *Timeline) validateEvent(ev *Event) error {
	if ev.At < 0 {
		return fmt.Errorf("%s at negative time %v", ev.Op, ev.At)
	}
	if ev.At > tl.Horizon {
		return fmt.Errorf("%s at %v beyond horizon %v", ev.Op, ev.At, tl.Horizon)
	}
	allowed, known := opOperands[ev.Op]
	if !known {
		return fmt.Errorf("unknown op %q", ev.Op)
	}
	if stray := ev.operands() &^ allowed; stray != 0 {
		var names []string
		for i, name := range operandNames {
			if stray&(1<<i) != 0 {
				names = append(names, name)
			}
		}
		return fmt.Errorf("%s carries %s, which it does not use", ev.Op, strings.Join(names, ", "))
	}
	needsID := func() error {
		if ev.ID == "" {
			return fmt.Errorf("%s without a replica id", ev.Op)
		}
		return nil
	}
	switch ev.Op {
	case OpJoin:
		if err := needsID(); err != nil {
			return err
		}
		if len(ev.Config) == 0 {
			return fmt.Errorf("join %s without a configuration", ev.ID)
		}
		if err := checkConfiguration(ev.Config); err != nil {
			return err
		}
		if ev.Power <= 0 {
			return fmt.Errorf("join %s with non-positive power %v", ev.ID, ev.Power)
		}
		if ev.PatchLatency < 0 {
			return fmt.Errorf("join %s with negative patch latency %v", ev.ID, ev.PatchLatency)
		}
	case OpLeave:
		return needsID()
	case OpPower:
		if err := needsID(); err != nil {
			return err
		}
		if ev.Power < 0 {
			return fmt.Errorf("power %s set to negative %v", ev.ID, ev.Power)
		}
	case OpMigrate:
		if err := needsID(); err != nil {
			return err
		}
		if len(ev.Config) == 0 {
			return fmt.Errorf("migrate %s without a configuration", ev.ID)
		}
		if err := checkConfiguration(ev.Config); err != nil {
			return err
		}
	case OpDisclose:
		if ev.Vuln == nil {
			return errors.New("disclose without a vulnerability")
		}
		v, err := ev.Vuln.Vulnerability()
		if err != nil {
			return err
		}
		if err := v.Validate(); err != nil {
			return err
		}
		if ev.At != ev.Vuln.Disclosed {
			return fmt.Errorf("disclose %s at %v but disclosed %v (must match)",
				ev.Vuln.ID, ev.At, ev.Vuln.Disclosed)
		}
	case OpPartition, OpCrash:
		if len(ev.IDs) == 0 {
			return fmt.Errorf("%s without replica ids", ev.Op)
		}
	case OpHeal:
		// No operands: heals every partitioned replica.
	case OpRestore:
		// Empty IDs restores every crashed replica.
	case OpDegrade:
		if len(ev.IDs) != 2 || ev.IDs[0] == ev.IDs[1] {
			return fmt.Errorf("degrade needs two distinct link endpoints, got %v", ev.IDs)
		}
		if ev.Fault == nil {
			return errors.New("degrade without a fault model")
		}
		if err := ev.Fault.Validate(); err != nil {
			return err
		}
	case OpRestoreLink:
		if len(ev.IDs) != 2 || ev.IDs[0] == ev.IDs[1] {
			return fmt.Errorf("restore-link needs two distinct link endpoints, got %v", ev.IDs)
		}
	case OpProbe:
		if ev.Strategy == nil {
			return errors.New("probe without a strategy")
		}
		if _, err := ev.Strategy.Strategy(); err != nil {
			return err
		}
	case OpRotate:
		if ev.Size <= 0 {
			return fmt.Errorf("rotate with non-positive committee size %d", ev.Size)
		}
	}
	return nil
}

// Apply schedules every timeline event onto the engine, in listing order, so
// same-instant events fire as listed. It validates first so a hand-edited
// timeline fails with a position rather than a mid-run scheduler error, and
// attaches the live harness before any event.
func (tl *Timeline) Apply(e *Engine) error {
	if err := tl.Validate(); err != nil {
		return err
	}
	if tl.Live != nil {
		if liveAttach == nil {
			return fmt.Errorf("scenario: timeline %s requires the live harness, but no live-attach hook is registered (import internal/liveloop)", tl.Name)
		}
		if err := liveAttach(e, tl.Live); err != nil {
			return fmt.Errorf("scenario: timeline %s: live attach: %w", tl.Name, err)
		}
	}
	for i := range tl.Events {
		if err := applyEvent(e, &tl.Events[i]); err != nil {
			return fmt.Errorf("scenario: timeline %s: event %d: %w", tl.Name, i, err)
		}
	}
	return nil
}

// applyEvent schedules one validated event.
func applyEvent(e *Engine, ev *Event) error {
	switch ev.Op {
	case OpJoin:
		cfg, err := BuildConfiguration(ev.Config)
		if err != nil {
			return err
		}
		return e.joinAt(ev.At.D(), registry.ReplicaID(ev.ID), cfg, ev.Power, ev.PatchLatency.D())
	case OpLeave:
		return e.leaveAt(ev.At.D(), registry.ReplicaID(ev.ID))
	case OpPower:
		return e.setPowerAt(ev.At.D(), registry.ReplicaID(ev.ID), ev.Power)
	case OpMigrate:
		cfg, err := BuildConfiguration(ev.Config)
		if err != nil {
			return err
		}
		return e.migrateAt(ev.At.D(), registry.ReplicaID(ev.ID), cfg)
	case OpDisclose:
		v, err := ev.Vuln.Vulnerability()
		if err != nil {
			return err
		}
		return e.disclose(v)
	case OpPartition:
		return e.partitionAt(ev.At.D(), replicaIDs(ev.IDs)...)
	case OpHeal:
		return e.healAt(ev.At.D())
	case OpCrash:
		return e.crashAt(ev.At.D(), replicaIDs(ev.IDs)...)
	case OpRestore:
		return e.restoreAt(ev.At.D(), replicaIDs(ev.IDs)...)
	case OpProbe:
		s, err := ev.Strategy.Strategy()
		if err != nil {
			return err
		}
		return e.probeAt(ev.At.D(), s)
	case OpDegrade:
		return e.degradeAt(ev.At.D(), registry.ReplicaID(ev.IDs[0]), registry.ReplicaID(ev.IDs[1]), *ev.Fault)
	case OpRestoreLink:
		return e.restoreLinkAt(ev.At.D(), registry.ReplicaID(ev.IDs[0]), registry.ReplicaID(ev.IDs[1]))
	case OpRotate:
		return e.rotateAt(ev.At.D(), ev.Size)
	default:
		return fmt.Errorf("unknown op %q", ev.Op)
	}
}

func replicaIDs(names []string) []registry.ReplicaID {
	out := make([]registry.ReplicaID, len(names))
	for i, n := range names {
		out[i] = registry.ReplicaID(n)
	}
	return out
}

// Def wraps the timeline as a runnable scenario definition: its metadata,
// and a Build that returns the timeline itself whatever the seed.
func (tl *Timeline) Def() Def {
	return Def{
		Name:    tl.Name,
		Title:   tl.Title,
		Tags:    append([]string(nil), tl.Tags...),
		Horizon: tl.Horizon.D(),
		Tick:    tl.Tick.D(),
		Build:   func(*rand.Rand) *Timeline { return tl },
	}
}

// Clone deep-copies the timeline so shrinking and hand-editing cannot
// alias the original's event slices.
func (tl *Timeline) Clone() *Timeline {
	out := *tl
	out.Tags = append([]string(nil), tl.Tags...)
	if tl.Live != nil {
		live := *tl.Live
		live.Targets = append([]ComponentSpec(nil), tl.Live.Targets...)
		out.Live = &live
	}
	out.Events = make([]Event, len(tl.Events))
	for i, ev := range tl.Events {
		out.Events[i] = ev.clone()
	}
	return &out
}

func (ev Event) clone() Event {
	out := ev
	out.IDs = append([]string(nil), ev.IDs...)
	out.Config = append([]ComponentSpec(nil), ev.Config...)
	if ev.Vuln != nil {
		v := *ev.Vuln
		out.Vuln = &v
	}
	if ev.Strategy != nil {
		out.Strategy = ev.Strategy.clone()
	}
	if ev.Fault != nil {
		f := *ev.Fault
		out.Fault = &f
	}
	return out
}

func (s *StrategySpec) clone() *StrategySpec {
	out := *s
	out.Strategies = make([]StrategySpec, len(s.Strategies))
	for i := range s.Strategies {
		out.Strategies[i] = *s.Strategies[i].clone()
	}
	if len(out.Strategies) == 0 {
		out.Strategies = nil
	}
	return &out
}

// SortEvents restores the canonical ascending-At ordering (stable, so
// same-instant events keep their scheduling order). Generators emit events
// out of construction order; this is the one normalization step before
// Validate.
func (tl *Timeline) SortEvents() {
	sort.SliceStable(tl.Events, func(i, j int) bool { return tl.Events[i].At < tl.Events[j].At })
}

// MarshalIndent renders the timeline as the canonical indented JSON
// artifact (trailing newline included), the format committed golden
// timelines and shrunk counterexamples use.
func (tl *Timeline) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(tl, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode timeline %s: %w", tl.Name, err)
	}
	return append(b, '\n'), nil
}

// ParseTimeline decodes and validates a timeline from its JSON encoding.
func ParseTimeline(data []byte) (*Timeline, error) {
	var tl Timeline
	if err := json.Unmarshal(data, &tl); err != nil {
		return nil, fmt.Errorf("scenario: decode timeline: %w", err)
	}
	if err := tl.Validate(); err != nil {
		return nil, err
	}
	return &tl, nil
}
