package scenario

import (
	"fmt"
)

// Shrinking: given a timeline that violates an invariant, find a smaller
// timeline that still violates it. The algorithm is classic delta
// debugging (ddmin) over the event list, followed by a single-event
// removal fixpoint (so the result is 1-minimal: removing any one event
// loses the violation) and value-simplification passes (powers to 1,
// latencies to 0, ID lists and adaptive strategies cut down). Every
// candidate is judged by actually running it — a candidate whose run
// errors (it removed a join someone else references) simply does not
// reproduce and is rejected, which is standard ddmin behaviour.

// ShrinkResult is the outcome of one shrink.
type ShrinkResult struct {
	// Timeline is the minimized timeline; it still violates the target
	// invariant when run at the original seed.
	Timeline *Timeline
	// Violations are the target's violations on the minimized timeline.
	Violations []Violation
	// OriginalEvents and Events count the timeline before and after.
	OriginalEvents int
	Events         int
	// Runs is how many candidate runs the search spent.
	Runs int
}

// shrinker carries the search state.
type shrinker struct {
	seed    int64
	target  Invariant
	runs    int
	invalid int // candidates Validate rejected; the passes only drop events and simplify operands, so it stays 0
}

// reproduces reports whether the candidate still violates the target, and
// returns the violations when it does. Run errors and validation errors
// mean "does not reproduce" — the search only follows candidates that
// exhibit the original failure, not new ones.
func (s *shrinker) reproduces(tl *Timeline) ([]Violation, bool) {
	s.runs++
	if err := tl.Validate(); err != nil {
		s.invalid++
		return nil, false
	}
	_, violations, err := CheckRun(tl.Def(), s.seed, []Invariant{s.target})
	if err != nil || len(violations) == 0 {
		return nil, false
	}
	return violations, true
}

// withEvents clones the timeline with a replacement event list.
func withEvents(tl *Timeline, events []Event) *Timeline {
	out := tl.Clone()
	out.Events = events
	return out
}

// ddmin minimizes the event list with delta debugging: try dropping whole
// chunks at decreasing granularity until no chunk can go.
func (s *shrinker) ddmin(tl *Timeline) *Timeline {
	events := tl.Events
	n := 2
	for len(events) >= 2 {
		chunk := (len(events) + n - 1) / n
		reduced := false
		for start := 0; start < len(events); start += chunk {
			end := start + chunk
			if end > len(events) {
				end = len(events)
			}
			candidate := make([]Event, 0, len(events)-(end-start))
			candidate = append(candidate, events[:start]...)
			candidate = append(candidate, events[end:]...)
			if _, ok := s.reproduces(withEvents(tl, candidate)); ok {
				events = candidate
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}
		if n >= len(events) {
			break
		}
		n = min(2*n, len(events))
	}
	return withEvents(tl, events)
}

// minimize1 removes single events until none can go — the 1-minimality
// fixpoint the property tests assert.
func (s *shrinker) minimize1(tl *Timeline) *Timeline {
	for {
		removed := false
		for i := 0; i < len(tl.Events); i++ {
			candidate := make([]Event, 0, len(tl.Events)-1)
			candidate = append(candidate, tl.Events[:i]...)
			candidate = append(candidate, tl.Events[i+1:]...)
			if _, ok := s.reproduces(withEvents(tl, candidate)); ok {
				tl = withEvents(tl, candidate)
				removed = true
				break
			}
		}
		if !removed {
			return tl
		}
	}
}

// simplify applies value-level reductions event by event, keeping each one
// only if the violation survives: powers to 1, latencies to 0, partition/
// crash/restore ID lists cut element by element, adaptive strategies
// replaced by their first sub-strategy, severities raised to 1 and version
// pins dropped. Returns the simplified timeline and whether anything stuck.
func (s *shrinker) simplify(tl *Timeline) (*Timeline, bool) {
	changed := false
	try := func(mod func(ev *Event)) {
		for i := range tl.Events {
			candidate := tl.Clone()
			before := candidate.Events[i]
			mod(&candidate.Events[i])
			if eventsEqual(before, candidate.Events[i]) {
				continue
			}
			if _, ok := s.reproduces(candidate); ok {
				tl = candidate
				changed = true
			}
		}
	}
	try(func(ev *Event) {
		if ev.Op == OpJoin && ev.Power != 1 {
			ev.Power = 1
		}
	})
	try(func(ev *Event) {
		if ev.Op == OpJoin && ev.PatchLatency != 0 {
			ev.PatchLatency = 0
		}
	})
	try(func(ev *Event) {
		if (ev.Op == OpPartition || ev.Op == OpCrash || ev.Op == OpRestore) && len(ev.IDs) > 1 {
			ev.IDs = ev.IDs[:len(ev.IDs)-1]
		}
	})
	try(func(ev *Event) {
		if ev.Op == OpProbe && ev.Strategy != nil && ev.Strategy.Kind == "adaptive" && len(ev.Strategy.Strategies) > 0 {
			first := ev.Strategy.Strategies[0]
			ev.Strategy = &first
		}
	})
	try(func(ev *Event) {
		if ev.Op == OpDisclose && ev.Vuln != nil && ev.Vuln.Severity != 1 {
			v := *ev.Vuln
			v.Severity = 1
			ev.Vuln = &v
		}
	})
	try(func(ev *Event) {
		if ev.Op == OpDisclose && ev.Vuln != nil && ev.Vuln.Version != "" {
			v := *ev.Vuln
			v.Version = ""
			ev.Vuln = &v
		}
	})
	try(func(ev *Event) {
		if len(ev.Config) > 1 {
			ev.Config = ev.Config[:1]
		}
	})
	try(func(ev *Event) {
		// A degraded link shrinks to a pure drop fault: the latency, jitter,
		// duplication and reordering knobs go first, keeping only the loss.
		if ev.Op == OpDegrade && ev.Fault != nil &&
			(ev.Fault.ExtraLatency != 0 || ev.Fault.Jitter != 0 || ev.Fault.Duplicate != 0 || ev.Fault.Reorder != 0) {
			f := *ev.Fault
			f.ExtraLatency = 0
			f.Jitter = 0
			f.Duplicate = 0
			f.Reorder = 0
			ev.Fault = &f
		}
	})
	return tl, changed
}

// eventsEqual compares two events structurally (cheap field walk; the
// shrinker only needs "did the mod change anything").
func eventsEqual(a, b Event) bool {
	if a.Op != b.Op || a.At != b.At || a.ID != b.ID || a.Power != b.Power || a.PatchLatency != b.PatchLatency || a.Size != b.Size {
		return false
	}
	if len(a.IDs) != len(b.IDs) || len(a.Config) != len(b.Config) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			return false
		}
	}
	for i := range a.Config {
		if a.Config[i] != b.Config[i] {
			return false
		}
	}
	if (a.Vuln == nil) != (b.Vuln == nil) || (a.Vuln != nil && *a.Vuln != *b.Vuln) {
		return false
	}
	if (a.Fault == nil) != (b.Fault == nil) || (a.Fault != nil && *a.Fault != *b.Fault) {
		return false
	}
	if (a.Strategy == nil) != (b.Strategy == nil) {
		return false
	}
	if a.Strategy != nil {
		if a.Strategy.Kind != b.Strategy.Kind || a.Strategy.Budget != b.Strategy.Budget ||
			len(a.Strategy.Strategies) != len(b.Strategy.Strategies) {
			return false
		}
	}
	return true
}

// shrinkMaxPasses bounds the outer minimize/simplify loop; each pass only
// runs when the previous one changed something, so the bound is a backstop
// against a pathological oscillation, not a tuning knob.
const shrinkMaxPasses = 8

// Shrink minimizes a violating timeline against one target invariant,
// preserving the timeline's name (the name feeds seed derivation — rename
// it and you are shrinking a different run). The result is 1-minimal under
// single-event removal. Errors only when the input does not violate the
// target in the first place.
func Shrink(tl *Timeline, seed int64, target Invariant) (*ShrinkResult, error) {
	return (&shrinker{seed: seed, target: target}).shrink(tl)
}

func (s *shrinker) shrink(tl *Timeline) (*ShrinkResult, error) {
	if _, ok := s.reproduces(tl); !ok {
		return nil, fmt.Errorf("scenario: timeline %s does not violate %s at seed %d; nothing to shrink",
			tl.Name, s.target.Name, s.seed)
	}
	original := len(tl.Events)
	cur := tl.Clone()
	cur = s.ddmin(cur)
	for pass := 0; pass < shrinkMaxPasses; pass++ {
		cur = s.minimize1(cur)
		simplified, changed := s.simplify(cur)
		cur = simplified
		if !changed {
			break
		}
	}
	violations, ok := s.reproduces(cur)
	if !ok {
		// Unreachable by construction — every accepted step reproduced.
		return nil, fmt.Errorf("scenario: shrink of %s lost the violation", tl.Name)
	}
	return &ShrinkResult{
		Timeline:       cur,
		Violations:     violations,
		OriginalEvents: original,
		Events:         len(cur.Events),
		Runs:           s.runs,
	}, nil
}
