package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// Record is one line of a scenario trace: the event that fired, the full
// assessment taken immediately after it, and the worst-window sweep for
// the current membership. The JSON encoding (one object per line, fields
// in struct order) is the trace format CI diffs byte-for-byte: every field
// is either an integer, a bool, a string, or a float64 rendered by Go's
// deterministic shortest-form formatter, so identical runs produce
// identical bytes on every platform.
type Record struct {
	// Seq numbers records within one scenario run, from 0.
	Seq uint64 `json:"seq"`
	// T is the virtual instant as a Duration string ("36h0m0s").
	T string `json:"t"`
	// TNanos is the same instant in nanoseconds, for machine consumers.
	TNanos int64 `json:"t_ns"`
	// Scenario is the scenario name the record belongs to.
	Scenario string `json:"scenario"`
	// Event is the event kind: setup, join, leave, power, migrate,
	// disclose, patch, partition, heal, probe, rotate, tick, final, or a
	// scenario-defined kind.
	Event string `json:"event"`
	// Detail is the event's human-readable payload (replica id, CVE id,
	// committee composition, ...), empty for bare ticks.
	Detail string `json:"detail,omitempty"`

	// Replicas and Configs describe the membership at the instant.
	Replicas int `json:"replicas"`
	Configs  int `json:"configs"`
	// Power is the total effective voting power.
	Power float64 `json:"power"`
	// Entropy is the configuration-diversity entropy in bits; MaxShare the
	// largest single configuration's power share.
	Entropy  float64 `json:"entropy"`
	MaxShare float64 `json:"max_share"`
	// Compromised is Σ f_t^i deduplicated — the compromised power fraction
	// at the instant; Safe the Sec. II-C condition against the substrate
	// threshold.
	Compromised float64 `json:"compromised"`
	Safe        bool    `json:"safe"`
	// WorstAtNanos / WorstFraction / WorstSafe describe the adversary's
	// best striking moment over the scenario horizon for the *current*
	// membership (exact event-driven sweep, see vuln.WorstWindow).
	WorstAtNanos  int64   `json:"worst_at_ns"`
	WorstFraction float64 `json:"worst_fraction"`
	WorstSafe     bool    `json:"worst_safe"`

	// AdvStrategy/AdvDetail are set on probe records only (their presence
	// marks a probe); AdvFraction and AdvBreaks are always encoded so a
	// zero-gain probe still carries explicit 0/false values, matching the
	// CSV columns.
	AdvStrategy string  `json:"adv_strategy,omitempty"`
	AdvDetail   string  `json:"adv_detail,omitempty"`
	AdvFraction float64 `json:"adv_fraction"`
	AdvBreaks   bool    `json:"adv_breaks"`

	// Live-loop extensions (live.go). All omitempty: scenarios
	// without a live harness encode exactly as before. Live marks records
	// emitted while a live cluster was attached; LiveCommits counts honest
	// commit events so far; LiveByzFrac is the fraction of replicas running
	// a Byzantine behavior; LiveViolation reports an observed agreement
	// violation (two honest replicas committed conflicting values).
	Live          bool    `json:"live,omitempty"`
	LiveCommits   int     `json:"live_commits,omitempty"`
	LiveByzFrac   float64 `json:"live_byz_frac,omitempty"`
	LiveViolation bool    `json:"live_violation,omitempty"`
	// Check/CheckDetail describe a prediction cross-check performed at this
	// record (liveness probe verdict, safety verdict, attack outcome);
	// Divergence is set when the observation contradicted the prediction.
	Check       string `json:"check,omitempty"`
	CheckDetail string `json:"check_detail,omitempty"`
	Divergence  bool   `json:"divergence,omitempty"`
	// LiveView is the highest view the live cluster has installed;
	// ViewChanges counts primary rotations so far. Both stay zero (and
	// unencoded) until a view change happens, so fixed-primary traces are
	// byte-identical to the pre-rotation format.
	LiveView    uint64 `json:"live_view,omitempty"`
	ViewChanges int    `json:"view_changes,omitempty"`
	// Recovery spans: BreachAtNanos marks the record where the assessment
	// crossed the threshold; RecoverAtNanos the record where it returned to
	// assessed-safe with implants cleansed; RecoverNanos (ttr_ns) the
	// time-to-recover between them, set on the recovery record.
	BreachAtNanos  int64 `json:"breach_at_ns,omitempty"`
	RecoverAtNanos int64 `json:"recover_at_ns,omitempty"`
	RecoverNanos   int64 `json:"ttr_ns,omitempty"`
}

// JSON renders the record as its canonical single-line JSON encoding.
func (r Record) JSON() (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("scenario: encode record %d: %w", r.Seq, err)
	}
	return string(b), nil
}

// CSVHeader is the column order of the CSV trace encoding, matching the
// JSON field order.
func CSVHeader() []string {
	return []string{
		"seq", "t", "t_ns", "scenario", "event", "detail",
		"replicas", "configs", "power", "entropy", "max_share",
		"compromised", "safe", "worst_at_ns", "worst_fraction", "worst_safe",
		"adv_strategy", "adv_detail", "adv_fraction", "adv_breaks",
		"live", "live_commits", "live_byz_frac", "live_violation",
		"check", "check_detail", "divergence",
		"live_view", "view_changes",
		"breach_at_ns", "recover_at_ns", "ttr_ns",
	}
}

// CSVRow renders the record as CSV cells in CSVHeader order. Floats use
// the shortest round-trip form, so rows are byte-deterministic.
func (r Record) CSVRow() []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		strconv.FormatUint(r.Seq, 10),
		r.T,
		strconv.FormatInt(r.TNanos, 10),
		r.Scenario,
		r.Event,
		r.Detail,
		strconv.Itoa(r.Replicas),
		strconv.Itoa(r.Configs),
		f(r.Power),
		f(r.Entropy),
		f(r.MaxShare),
		f(r.Compromised),
		strconv.FormatBool(r.Safe),
		strconv.FormatInt(r.WorstAtNanos, 10),
		f(r.WorstFraction),
		strconv.FormatBool(r.WorstSafe),
		r.AdvStrategy,
		r.AdvDetail,
		f(r.AdvFraction),
		strconv.FormatBool(r.AdvBreaks),
		strconv.FormatBool(r.Live),
		strconv.Itoa(r.LiveCommits),
		f(r.LiveByzFrac),
		strconv.FormatBool(r.LiveViolation),
		r.Check,
		r.CheckDetail,
		strconv.FormatBool(r.Divergence),
		strconv.FormatUint(r.LiveView, 10),
		strconv.Itoa(r.ViewChanges),
		strconv.FormatInt(r.BreachAtNanos, 10),
		strconv.FormatInt(r.RecoverAtNanos, 10),
		strconv.FormatInt(r.RecoverNanos, 10),
	}
}

// Summary condenses one scenario run for the CLI's table view.
type Summary struct {
	Scenario      string
	Seed          int64
	Records       int
	Events        int // non-tick, non-final records
	FinalReplicas int
	MinEntropy    float64
	FinalEntropy  float64
	MaxComp       float64       // worst instantaneous compromised fraction
	MaxCompAt     time.Duration // when it happened
	UnsafeRecords int
	AdvBestFrac   float64 // best probe fraction any adversary achieved
	AdvBreaks     bool    // did any probe break the threshold

	// Live-loop aggregates (zero for scenarios without a live harness).
	Checks      int           // prediction cross-checks performed
	Divergences int           // checks where observation contradicted prediction
	Violations  int           // records reporting an observed agreement violation
	FinalView   uint64        // highest view the live cluster installed
	ViewChanges int           // primary rotations the live cluster performed
	Breaches    int           // threshold-breach records
	Recoveries  int           // recovery records (breach returned to assessed-safe)
	MaxTTR      time.Duration // slowest time-to-recover observed
}

// Summarize folds a run's records into a Summary.
func Summarize(scenario string, seed int64, records []Record) Summary {
	s := Summary{Scenario: scenario, Seed: seed, Records: len(records)}
	for i, r := range records {
		if i == 0 || r.Entropy < s.MinEntropy {
			s.MinEntropy = r.Entropy
		}
		if r.Compromised > s.MaxComp {
			s.MaxComp = r.Compromised
			s.MaxCompAt = time.Duration(r.TNanos)
		}
		if !r.Safe {
			s.UnsafeRecords++
		}
		if r.Event != "tick" && r.Event != "final" {
			s.Events++
		}
		if r.AdvFraction > s.AdvBestFrac {
			s.AdvBestFrac = r.AdvFraction
		}
		if r.AdvBreaks {
			s.AdvBreaks = true
		}
		if r.Check != "" {
			s.Checks++
		}
		if r.Divergence {
			s.Divergences++
		}
		if r.LiveViolation {
			s.Violations++
		}
		if r.LiveView > s.FinalView {
			s.FinalView = r.LiveView
		}
		if r.ViewChanges > s.ViewChanges {
			s.ViewChanges = r.ViewChanges
		}
		if r.BreachAtNanos != 0 {
			s.Breaches++
		}
		if r.RecoverAtNanos != 0 {
			s.Recoveries++
			if ttr := time.Duration(r.RecoverNanos); ttr > s.MaxTTR {
				s.MaxTTR = ttr
			}
		}
		if i == len(records)-1 {
			s.FinalReplicas = r.Replicas
			s.FinalEntropy = r.Entropy
		}
	}
	return s
}
