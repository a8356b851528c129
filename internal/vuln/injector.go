package vuln

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// Injector is a precomputed exposure index over one (catalog, replica set)
// pair. Construction matches every catalog vulnerability against every
// replica exactly once and sorts each vulnerability's exposed replicas into
// attack-priority order (power descending, name as tie-breaker). After
// that, evaluating the fault picture at an instant only filters each
// precomputed set by its per-replica exploit window — no re-matching, no
// re-sorting — and the event-driven WorstWindow sweep reuses internal
// buffers so it does not allocate per instant.
//
// An Injector is a snapshot: it does not observe later Catalog.Add calls
// or mutations of the replica set it was built from. Its methods share
// scratch buffers and must not be called concurrently.
type Injector struct {
	replicas   []Replica
	totalPower float64
	exposures  []exposure

	// active holds the indices (into replicas) of the current
	// vulnerability's open-window exposed set, reused across calls.
	active []int
	// marks deduplicates compromised replicas across vulnerabilities
	// within one instant: marks[i] == markGen means replica i is already
	// counted. Bumping markGen resets all marks in O(1).
	marks   []uint64
	markGen uint64
	// seen is Rebuild's duplicate-name check, kept for its storage.
	seen map[string]struct{}
}

// exposure is one vulnerability's static exposure set: the replicas whose
// configuration it affects, independent of time.
type exposure struct {
	vuln Vulnerability
	// exposed indexes into Injector.replicas, sorted by power descending
	// then name — the order an attacker prioritises targets.
	exposed []int
	// closeAt[i] is exposed[i]'s window close: PatchAt + its patch
	// latency. The open side (Disclosed) is shared by the whole set.
	closeAt []time.Duration
	// maxClose is the latest closeAt: past it the vulnerability is dead
	// for this replica set and the whole exposure can be skipped.
	maxClose time.Duration
}

// NewInjector builds the exposure index. The replica slice is copied;
// configurations are matched against the catalog's current contents.
func NewInjector(catalog *Catalog, replicas []Replica) (*Injector, error) {
	in := new(Injector)
	if err := in.Rebuild(catalog, replicas); err != nil {
		return nil, err
	}
	return in, nil
}

// Rebuild recomputes the whole index from (catalog, replicas), exactly as
// NewInjector would, reusing only the receiver's memory: a warm Rebuild over
// an input no larger than the last one allocates nothing. On error the
// receiver is left as it was.
func (in *Injector) Rebuild(catalog *Catalog, replicas []Replica) error {
	if catalog == nil {
		return errors.New("vuln: nil catalog")
	}
	if in.seen == nil {
		in.seen = make(map[string]struct{}, len(replicas))
	}
	clear(in.seen)
	var total float64
	for _, r := range replicas {
		if r.Power < 0 || math.IsNaN(r.Power) || math.IsInf(r.Power, 0) {
			return fmt.Errorf("vuln: replica %s has invalid power %v", r.Name, r.Power)
		}
		// Names identify replicas in fault dedup; a duplicate would make
		// "count each replica once" ambiguous, so reject it outright.
		if _, dup := in.seen[r.Name]; dup {
			return fmt.Errorf("vuln: duplicate replica name %s", r.Name)
		}
		in.seen[r.Name] = struct{}{}
		total += r.Power
	}
	in.replicas = append(in.replicas[:0], replicas...)
	in.totalPower = total
	in.marks = slices.Grow(in.marks[:0], len(replicas))[:len(replicas)]
	clear(in.marks)
	in.markGen = 0
	// Deterministic vulnerability order (by ID) so fault lists and event
	// sweeps replay identically run to run. Each vulnerability takes the
	// next exposure slot, keeping whatever storage a previous build left in
	// it; a vulnerability that exposes nothing gives the slot back.
	in.exposures = in.exposures[:0]
	for _, v := range catalog.allSorted() {
		in.exposures = slices.Grow(in.exposures, 1)[:len(in.exposures)+1]
		e := &in.exposures[len(in.exposures)-1]
		e.vuln, e.exposed, e.maxClose = v, e.exposed[:0], 0
		for i, r := range in.replicas {
			if v.Affects(r.Config) {
				e.exposed = append(e.exposed, i)
			}
		}
		if len(e.exposed) == 0 {
			in.exposures = in.exposures[:len(in.exposures)-1]
			continue
		}
		slices.SortFunc(e.exposed, func(a, b int) int {
			ra, rb := &in.replicas[a], &in.replicas[b]
			if c := cmp.Compare(rb.Power, ra.Power); c != 0 {
				return c
			}
			return strings.Compare(ra.Name, rb.Name)
		})
		e.closeAt = e.closeAt[:0]
		for _, idx := range e.exposed {
			c := v.PatchAt + in.replicas[idx].PatchLatency
			e.closeAt = append(e.closeAt, c)
			e.maxClose = max(e.maxClose, c)
		}
	}
	return nil
}

// SeverityTake is the number of exposed replicas a severity-s exploit
// compromises out of m: ceil(s·m), at least 1 whenever m > 0. The small
// epsilon keeps float noise from rounding an exact product up (e.g.
// 0.07·100 evaluates to 7.0000000000000009, which must take 7, not 8);
// it is far below the 1/m granularity any real severity distinguishes.
// It is the single source of truth for victim counting: the injector,
// the stepwise cross-check and adversary exploit planning all use it, so
// an adversary's claimed fraction can never disagree with the assessment
// of the same instant.
func SeverityTake(m int, severity float64) int {
	take := int(math.Ceil(float64(m)*severity - 1e-9))
	if take < 1 {
		take = 1 // Severity is validated positive: an exploit never takes zero
	}
	if take > m {
		take = m
	}
	return take
}

// activeAt fills in.active with the exposure's open-window replica indices
// at t, preserving attack-priority order, and reports whether any are open.
func (in *Injector) activeAt(e *exposure, t time.Duration) bool {
	in.active = in.active[:0]
	if t < e.vuln.Disclosed || t >= e.maxClose {
		return false
	}
	for i, idx := range e.exposed {
		if t < e.closeAt[i] {
			in.active = append(in.active, idx)
		}
	}
	return len(in.active) > 0
}

// Inject computes the full fault picture at instant t, equivalent to the
// package-level Inject but without re-matching or re-sorting. The returned
// Injection owns its slices; only the Injector's scratch is reused.
func (in *Injector) Inject(t time.Duration) Injection {
	inj := Injection{At: t}
	in.markGen++
	var dedup float64
	for i := range in.exposures {
		e := &in.exposures[i]
		if !in.activeAt(e, t) {
			continue
		}
		take := SeverityTake(len(in.active), e.vuln.Severity)
		fault := Fault{
			Vuln:        e.vuln.ID,
			Compromised: make([]string, 0, take),
		}
		for _, idx := range in.active[:take] {
			r := &in.replicas[idx]
			fault.Compromised = append(fault.Compromised, r.Name)
			fault.Power += r.Power
			if in.marks[idx] != in.markGen {
				in.marks[idx] = in.markGen
				dedup += r.Power
			}
		}
		if in.totalPower > 0 {
			fault.PowerFraction = fault.Power / in.totalPower
		}
		inj.Faults = append(inj.Faults, fault)
		inj.SumFraction += fault.PowerFraction
	}
	if in.totalPower > 0 {
		inj.TotalFraction = dedup / in.totalPower
	}
	return inj
}

// TotalFractionAt computes only the deduplicated compromised power
// fraction at t — the quantity WorstWindow maximises — without building
// Fault lists. It allocates nothing after the first call.
func (in *Injector) TotalFractionAt(t time.Duration) float64 {
	if in.totalPower == 0 {
		return 0
	}
	in.markGen++
	var dedup float64
	for i := range in.exposures {
		e := &in.exposures[i]
		if !in.activeAt(e, t) {
			continue
		}
		take := SeverityTake(len(in.active), e.vuln.Severity)
		for _, idx := range in.active[:take] {
			if in.marks[idx] != in.markGen {
				in.marks[idx] = in.markGen
				dedup += in.replicas[idx].Power
			}
		}
	}
	return dedup / in.totalPower
}

// CriticalInstants returns the sorted, deduplicated set of instants in
// [0, horizon] where the fault picture can change: 0, each vulnerability's
// disclosure, and each (vulnerability, replica) window close. Between
// consecutive instants every exploit window is constant, so TotalFraction
// is a right-continuous step function taking a single value per piece —
// evaluating at these instants alone observes every value the function
// takes on [0, horizon].
//
// Close instants matter even though closing only removes exposed replicas:
// a sub-1 severity exploit re-targets the remaining replicas, so the
// deduplicated total across vulnerabilities can increase when a window
// closes.
func (in *Injector) CriticalInstants(horizon time.Duration) []time.Duration {
	events := []time.Duration{0}
	for i := range in.exposures {
		e := &in.exposures[i]
		if d := e.vuln.Disclosed; d > 0 && d <= horizon {
			events = append(events, d)
		}
		for _, c := range e.closeAt {
			if c > 0 && c <= horizon {
				events = append(events, c)
			}
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a] < events[b] })
	out := events[:1]
	for _, t := range events[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// WorstWindow sweeps the critical instants of [0, horizon] and returns the
// full injection at the earliest instant maximising the deduplicated
// compromised fraction — the adversary's best moment to strike, computed
// exactly rather than at a fixed sampling resolution.
func (in *Injector) WorstWindow(horizon time.Duration) (Injection, error) {
	if horizon < 0 {
		return Injection{}, fmt.Errorf("vuln: negative horizon %v", horizon)
	}
	bestT := time.Duration(0)
	bestF := in.TotalFractionAt(0)
	for _, t := range in.CriticalInstants(horizon)[1:] {
		if f := in.TotalFractionAt(t); f > bestF {
			bestT, bestF = t, f
		}
	}
	if bestF == 0 {
		// Match the stepwise scan: no instant compromises anything, so
		// report the zero injection rather than a fault-free picture at 0.
		return Injection{}, nil
	}
	return in.Inject(bestT), nil
}
