package registry

import (
	"cmp"
	"maps"
	"slices"
	"sync"

	"repro/internal/config"
	"repro/internal/diversity"
	"repro/internal/vuln"
)

// SnapBucket is one configuration bucket as exported by a Snapshot: the
// vuln.BucketSpec (key, configuration, equivalence groups with weighted
// per-member power) plus the bucket's aggregates. SnapBuckets are immutable
// and shared: a delta-built snapshot reuses the previous snapshot's
// *SnapBucket pointers for every bucket the intervening mutations did not
// touch, so consumers (core.Monitor) can diff two snapshots by pointer
// comparison and patch their derived state in O(Δ).
type SnapBucket struct {
	vuln.BucketSpec
	Count int     // members in the bucket
	Power float64 // Σ weighted member power
}

// Snapshot is the memoized read-side view of the membership under one
// weighting: everything Monitor.Assess needs, computed once per (mutation
// generation, weighting) and rebuilt by delta from the previous snapshot.
// All exported state is shared across callers and must be treated as
// read-only; pointer identity is stable until the registry mutates, so
// callers can cache per-snapshot derivations by comparing pointers.
type Snapshot struct {
	// Generation is the mutation generation the snapshot was built at.
	Generation uint64
	// Weighting is the tier weighting the snapshot applies.
	Weighting Weighting
	// Distribution is the weighted power distribution over config digests,
	// computed from bucket aggregates (O(#buckets)).
	Distribution diversity.Distribution

	buckets []*SnapBucket // label-ascending
	members int
	// classes counts members per weighted power — the histogram Report's
	// operator-fault resilience needs. A delta snapshot copies its
	// predecessor's and re-counts only the changed buckets.
	classes map[float64]int

	// The two per-replica views are materialised lazily and separately: the
	// bucketed aggregates answer the hot paths (diversity report, exposure
	// index), and only consumers that genuinely need per-replica data pay
	// the O(N log N) expansion — once per snapshot and per view. Replicas
	// feeds the scenario oracle's flat injector (the main consumer),
	// adversary probes and the liveloop membership; Population only the
	// probes and Registry.Population.
	repsOnce sync.Once
	lazyReps []vuln.Replica
	popOnce  sync.Once
	lazyPop  *diversity.Population
}

// NumReplicas reports the population size in O(1).
func (s *Snapshot) NumReplicas() int { return s.members }

// BucketSpecs adapts the buckets for vuln.NewGroupInjector. The specs
// share the snapshot's group slices; read-only.
func (s *Snapshot) BucketSpecs() []vuln.BucketSpec {
	out := make([]vuln.BucketSpec, len(s.buckets))
	for i, sb := range s.buckets {
		out[i] = sb.BucketSpec
	}
	return out
}

// Replicas returns the membership adapted for vuln fault injection,
// ID-sorted, built lazily from the snapshot's own pinned group data (not
// live registry state, which may have moved on). Read-only: do not modify
// elements or append.
func (s *Snapshot) Replicas() []vuln.Replica {
	s.repsOnce.Do(func() {
		reps := make([]vuln.Replica, 0, s.members)
		for _, sb := range s.buckets {
			for _, g := range sb.Groups {
				for _, name := range g.Names {
					reps = append(reps, vuln.Replica{
						Name:         name,
						Config:       sb.Config,
						Power:        g.Power,
						PatchLatency: g.Latency,
					})
				}
			}
		}
		slices.SortFunc(reps, func(a, b vuln.Replica) int { return cmp.Compare(a.Name, b.Name) })
		s.lazyReps = reps
	})
	return s.lazyReps
}

// Population returns the weighted membership for diversity metrics,
// ID-sorted, built lazily. Shared and read-only.
func (s *Snapshot) Population() *diversity.Population {
	s.popOnce.Do(func() {
		type entry struct {
			name string
			m    diversity.Member
		}
		entries := make([]entry, 0, s.members)
		for _, sb := range s.buckets {
			for _, g := range sb.Groups {
				for _, name := range g.Names {
					entries = append(entries, entry{name: name, m: diversity.Member{Label: sb.Key, Power: g.Power}})
				}
			}
		}
		slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.name, b.name) })
		members := make([]diversity.Member, len(entries))
		for i, e := range entries {
			members[i] = e.m
		}
		pop, err := diversity.NewPopulation(members)
		if err != nil {
			// Unreachable: labels are non-empty digests and powers were
			// validated at join time.
			panic(err)
		}
		s.lazyPop = pop
	})
	return s.lazyPop
}

// Report computes the full diversity report from the snapshot's
// aggregates: distribution metrics from Distribution, abundance ω from
// per-bucket counts, and operator-fault resilience from the (power → member
// count) classes — O(#buckets + #power classes), never O(#groups) or
// O(#replicas). For integral powers the result is bit-identical to
// diversity.ReportForPopulation over Replicas(); the incremental-vs-cold
// property test pins that equivalence.
func (s *Snapshot) Report() (diversity.Report, error) {
	abundance := make([]int, len(s.buckets))
	for i, sb := range s.buckets {
		abundance[i] = sb.Count
	}
	classes := make([]diversity.PowerClass, 0, len(s.classes))
	for p, c := range s.classes {
		classes = append(classes, diversity.PowerClass{Power: p, Count: c})
	}
	return diversity.ReportForAggregates(s.Distribution, s.members, abundance, classes)
}

// countClasses adds (sign +1) or removes (sign −1) a bucket's members
// to/from the power-class histogram, dropping classes that empty out.
func countClasses(classes map[float64]int, sb *SnapBucket, sign int) {
	for _, g := range sb.Groups {
		if n := classes[g.Power] + sign*len(g.Names); n != 0 {
			classes[g.Power] = n
		} else {
			delete(classes, g.Power)
		}
	}
}

// exportBucketLocked builds the immutable snapshot view of a bucket under
// w, marking the group name slices shared so later mutations copy on
// write. r.mu (read) and r.snapMu must be held.
func (r *Registry) exportBucketLocked(b *bucket, w Weighting) *SnapBucket {
	sb := &SnapBucket{
		BucketSpec: vuln.BucketSpec{Key: b.label, Config: b.cfg},
		Count:      b.count,
	}
	sb.Groups = make([]vuln.GroupSpec, 0, len(b.groups))
	for _, g := range b.groups {
		wp := g.power * w.tierMultiplier(g.tier)
		sb.Groups = append(sb.Groups, vuln.GroupSpec{
			Power:   wp,
			Latency: g.latency,
			Names:   g.names,
		})
		sb.Power += float64(len(g.names)) * wp
		g.shared = true
	}
	return sb
}

// finalizeSnapshot computes the aggregate fields from the bucket list;
// classes is the buckets' power-class histogram, owned by the snapshot.
func (r *Registry) finalizeSnapshot(buckets []*SnapBucket, classes map[float64]int, w Weighting) (*Snapshot, error) {
	labels := make([]string, len(buckets))
	weights := make([]float64, len(buckets))
	members := 0
	for i, sb := range buckets {
		labels[i], weights[i] = sb.Key, sb.Power
		members += sb.Count
	}
	// The bucket list is label-ascending, which is the distribution's
	// canonical order: no map, no re-sort.
	dist, err := diversity.FromSorted(labels, weights)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Generation:   r.gen,
		Weighting:    w,
		Distribution: dist,
		buckets:      buckets,
		members:      members,
		classes:      classes,
	}, nil
}

// fullSnapshotLocked builds a snapshot from scratch: O(B log B + G) over
// buckets and groups. r.mu (read) and r.snapMu must be held.
func (r *Registry) fullSnapshotLocked(w Weighting) (*Snapshot, error) {
	buckets := make([]*SnapBucket, 0, len(r.buckets))
	classes := make(map[float64]int)
	for _, b := range r.buckets {
		sb := r.exportBucketLocked(b, w)
		buckets = append(buckets, sb)
		countClasses(classes, sb, +1)
	}
	slices.SortFunc(buckets, func(a, b *SnapBucket) int { return cmp.Compare(a.Key, b.Key) })
	return r.finalizeSnapshot(buckets, classes, w)
}

// changedSinceLocked returns the distinct bucket keys touched since
// prevGen, or ok=false when the snapshot at prevGen is more than journalKeep
// generations old (the caller then falls back to a full rebuild). Every
// mutation since the first cached snapshot journals exactly one generation
// and the journal keeps at least the newest journalKeep, so coverage is
// decided before anything is walked or allocated. r.mu (read) and r.snapMu
// must be held.
func (r *Registry) changedSinceLocked(prevGen uint64) ([]config.ID, bool) {
	need := r.gen - prevGen
	if need > journalKeep || need > uint64(len(r.journal)) {
		return nil, false
	}
	walk := r.journal[len(r.journal)-int(need):]
	seen := make(map[config.ID]struct{}, 2*len(walk))
	keys := make([]config.ID, 0, 2*len(walk))
	for i := len(walk) - 1; i >= 0; i-- {
		e := &walk[i]
		for _, k := range e.keys[:e.n] {
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
		}
	}
	return keys, true
}

// trimJournalLocked drops every journal entry at or below the oldest cached
// snapshot's generation: no delta can ask for it any more. r.mu (read) and
// r.snapMu must be held.
func (r *Registry) trimJournalLocked() {
	if len(r.journal) == 0 {
		return
	}
	oldest := r.gen
	for _, s := range r.snaps {
		oldest = min(oldest, s.Generation)
	}
	first := r.journal[0].gen // the last is r.gen: generations are consecutive
	if oldest < first {
		return
	}
	n := copy(r.journal, r.journal[oldest-first+1:])
	r.journal = r.journal[:n]
	if n == 0 && cap(r.journal) > journalShrink {
		r.journal = nil
	}
}

// deltaSnapshotLocked builds the snapshot at the current generation by
// re-exporting only the changed buckets and sharing every other
// *SnapBucket with prev: O(Δ·log + B) instead of O(N log N). r.mu (read)
// and r.snapMu must be held.
func (r *Registry) deltaSnapshotLocked(prev *Snapshot, changed []config.ID, w Weighting) (*Snapshot, error) {
	type change struct {
		label string
		b     *bucket // nil: bucket no longer exists
	}
	changes := make([]change, 0, len(changed))
	for _, key := range changed {
		ch := change{b: r.buckets[key]}
		if ch.b != nil {
			ch.label = ch.b.label // the digest's hex form, cached at bucket creation
		} else {
			ch.label = key.String()
		}
		changes = append(changes, ch)
	}
	slices.SortFunc(changes, func(a, b change) int { return cmp.Compare(a.label, b.label) })

	out := make([]*SnapBucket, 0, len(prev.buckets)+len(changes))
	classes := maps.Clone(prev.classes)
	i := 0
	for _, ch := range changes {
		for i < len(prev.buckets) && prev.buckets[i].Key < ch.label {
			out = append(out, prev.buckets[i])
			i++
		}
		if i < len(prev.buckets) && prev.buckets[i].Key == ch.label {
			countClasses(classes, prev.buckets[i], -1) // superseded (or removed) below
			i++
		}
		if ch.b != nil {
			sb := r.exportBucketLocked(ch.b, w)
			out = append(out, sb)
			countClasses(classes, sb, +1)
		}
	}
	out = append(out, prev.buckets[i:]...)
	return r.finalizeSnapshot(out, classes, w)
}

// Snapshot returns the memoized derived view of the membership under w.
// On an unchanged registry it returns the previous pointer; after churn it
// delta-applies the journalled bucket changes onto the previous snapshot
// (falling back to a full rebuild, counted by JournalMisses, only when more
// than journalKeep generations went unread), then drops the journal entries
// no cached snapshot can ask for any more. Snapshot holds the registry read
// lock for the whole build, so a snapshot taken during churn is always
// internally consistent: its Generation, Distribution and buckets all
// describe the same instant.
func (r *Registry) Snapshot(w Weighting) (*Snapshot, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	if r.snaps == nil {
		r.snaps = make(map[Weighting]*Snapshot)
	}
	prev := r.snaps[w]
	if prev != nil && prev.Generation == r.gen {
		return prev, nil
	}
	var s *Snapshot
	var err error
	if prev != nil {
		if keys, ok := r.changedSinceLocked(prev.Generation); ok {
			s, err = r.deltaSnapshotLocked(prev, keys, w)
		} else {
			r.journalMisses++
		}
	}
	if s == nil && err == nil {
		s, err = r.fullSnapshotLocked(w)
	}
	if err != nil {
		return nil, err
	}
	r.snaps[w] = s
	r.trimJournalLocked()
	return s, nil
}

// DiffSnapshots compares two snapshots of the same registry and weighting,
// returning the buckets of next that are not shared with prev (changed or
// added) and the keys present only in prev (removed). Shared buckets are
// recognised by pointer identity, so the walk is O(#buckets) with no
// content comparison — and O(Δ) results under normal churn.
func DiffSnapshots(prev, next *Snapshot) (changed []vuln.BucketSpec, removed []string) {
	i, j := 0, 0
	pb, nb := prev.buckets, next.buckets
	for i < len(pb) && j < len(nb) {
		switch {
		case pb[i] == nb[j]: // shared, unchanged
			i++
			j++
		case pb[i].Key == nb[j].Key:
			changed = append(changed, nb[j].BucketSpec)
			i++
			j++
		case pb[i].Key < nb[j].Key:
			removed = append(removed, pb[i].Key)
			i++
		default:
			changed = append(changed, nb[j].BucketSpec)
			j++
		}
	}
	for ; i < len(pb); i++ {
		removed = append(removed, pb[i].Key)
	}
	for ; j < len(nb); j++ {
		changed = append(changed, nb[j].BucketSpec)
	}
	return changed, removed
}

// Population returns the membership as a diversity.Population under the
// given weighting: one member per replica, labelled by configuration
// digest, powered by weighted power. The returned population is the
// caller's to mutate (Population.Add is public); hot paths should use
// Snapshot and its shared read-only Population instead.
func (r *Registry) Population(w Weighting) (*diversity.Population, error) {
	s, err := r.Snapshot(w)
	if err != nil {
		return nil, err
	}
	return diversity.NewPopulation(s.Population().Members())
}

// Distribution returns the weighted power distribution over configuration
// digests — the paper's p over D for the live membership.
func (r *Registry) Distribution(w Weighting) (diversity.Distribution, error) {
	s, err := r.Snapshot(w)
	if err != nil {
		return diversity.Distribution{}, err
	}
	return s.Distribution, nil
}

// VulnReplicas adapts the membership for internal/vuln fault injection,
// using weighted power so two-tier weighting shows up in fault fractions.
// The returned slice is the caller's to mutate; hot paths should use
// Snapshot and its shared Replicas instead.
func (r *Registry) VulnReplicas(w Weighting) ([]vuln.Replica, error) {
	s, err := r.Snapshot(w)
	if err != nil {
		return nil, err
	}
	return append([]vuln.Replica(nil), s.Replicas()...), nil
}
