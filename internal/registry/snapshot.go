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

// deltaSnapshotLocked builds the snapshot at the current generation by
// re-exporting only the changed buckets and sharing every other
// *SnapBucket with prev: O(Δ·log + B) instead of O(N log N). r.mu (read)
// and r.snapMu must be held.
func (r *Registry) deltaSnapshotLocked(prev *Snapshot, changed map[config.ID]struct{}, w Weighting) (*Snapshot, error) {
	type change struct {
		label string
		b     *bucket // nil: bucket no longer exists
	}
	changes := make([]change, 0, len(changed))
	for key := range changed {
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

	labels := make([]string, len(out))
	weights := make([]float64, len(out))
	members := 0
	for i, sb := range out {
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
		buckets:      out,
		members:      members,
		classes:      classes,
	}, nil
}

// Snapshot returns the memoized derived view of the membership under w.
// On an unchanged registry it returns the previous pointer; after churn it
// re-exports the buckets mutated since onto the previous snapshot, however
// many mutations that was. A first snapshot under w is the same delta, from
// an empty snapshot with every bucket dirty. Snapshot holds the registry
// read lock for the whole build, so a snapshot taken during churn is always
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
	c := r.snaps[w]
	if c == nil {
		c = &cachedSnap{
			snap:  &Snapshot{classes: map[float64]int{}},
			dirty: make(map[config.ID]struct{}, len(r.buckets)),
		}
		for key := range r.buckets {
			c.dirty[key] = struct{}{}
		}
	} else if c.snap.Generation == r.gen {
		return c.snap, nil
	}
	s, err := r.deltaSnapshotLocked(c.snap, c.dirty, w)
	if err != nil {
		return nil, err
	}
	c.snap = s
	clear(c.dirty)
	r.snaps[w] = c
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
