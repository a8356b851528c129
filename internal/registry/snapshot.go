package registry

import (
	"cmp"
	"errors"
	"slices"
	"sync"

	"repro/internal/config"
	"repro/internal/diversity"
	"repro/internal/vuln"
)

// SnapBucket is one configuration bucket as exported by a Snapshot: the
// vuln.BucketSpec (key, configuration, equivalence groups with weighted
// per-member power units) plus the bucket's aggregates. SnapBuckets are
// immutable and shared: a delta-built snapshot reuses the previous snapshot's
// *SnapBucket pointers for every bucket the intervening mutations did not
// touch, so consumers (core.Monitor) can diff two snapshots by pointer
// comparison and patch their derived state in O(Δ).
type SnapBucket struct {
	vuln.BucketSpec
	Count int    // members in the bucket
	Units uint64 // Σ weighted member power units
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
	// classes counts members per weighted power unit count — the histogram
	// Report's operator-fault resilience needs — with Units strictly
	// descending and no zero Count, the order that walk consumes. A delta
	// snapshot merges its predecessor's with the changed buckets' groups
	// (mergeClasses); it shares no storage with the predecessor's.
	classes []diversity.PowerClass

	// The two per-replica views are materialised lazily and separately: the
	// bucketed aggregates answer the hot paths (diversity report, exposure
	// index), and only consumers that genuinely need per-replica data pay
	// the O(N log N) expansion — once per snapshot and per view. Replicas
	// feeds the scenario oracle's flat injector (the main consumer),
	// adversary probes and the live harness's membership; Population only the
	// probes and Registry.Population.
	repsOnce sync.Once
	lazyReps []vuln.Replica
	popOnce  sync.Once
	lazyPop  *diversity.Population
}

// NumReplicas reports the population size in O(1).
func (s *Snapshot) NumReplicas() int { return s.members }

// BucketSpecs adapts the buckets for vuln.NewGroupInjector, in a new slice.
// The specs share the snapshot's group slices; read-only.
func (s *Snapshot) BucketSpecs() []vuln.BucketSpec {
	specs := make([]vuln.BucketSpec, len(s.buckets))
	for i, sb := range s.buckets {
		specs[i] = sb.BucketSpec
	}
	return specs
}

// Replicas returns the membership adapted for vuln fault injection,
// ID-sorted, built lazily from the snapshot's own pinned group data (not
// live registry state, which may have moved on) and kept for the
// snapshot's later readers. It is for the readers that want ID order: the
// scenario engine's adversary probes, the live harness booting its
// cluster, VulnReplicas and assessbench. A reader indifferent to the order
// (the scenario oracle's vuln.Injector, which sorts what it needs) appends
// the same replicas into a buffer of its own with AppendReplicas instead.
// Read-only: do not modify elements or append.
func (s *Snapshot) Replicas() []vuln.Replica {
	s.repsOnce.Do(func() {
		reps := s.AppendReplicas(make([]vuln.Replica, 0, s.members))
		slices.SortFunc(reps, func(a, b vuln.Replica) int { return cmp.Compare(a.Name, b.Name) })
		s.lazyReps = reps
	})
	return s.lazyReps
}

// AppendReplicas appends the membership Replicas lists to dst, in bucket
// and group order rather than by ID. Nothing is sorted or kept on the
// snapshot.
func (s *Snapshot) AppendReplicas(dst []vuln.Replica) []vuln.Replica {
	for _, sb := range s.buckets {
		for _, g := range sb.Groups {
			for _, name := range g.Names {
				dst = append(dst, vuln.Replica{
					Name:         name,
					Config:       sb.Config,
					Power:        vuln.UnitsPower(g.Units),
					PatchLatency: g.Latency,
				})
			}
		}
	}
	return dst
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
					entries = append(entries, entry{name: name, m: diversity.Member{Label: sb.Key, Power: vuln.UnitsPower(g.Units)}})
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
// per-bucket counts, and operator-fault resilience from the power-class
// histogram, handed over as it is kept (already descending, so nothing is
// sorted) — O(#buckets + #power classes), never O(#groups) or
// O(#replicas). The result is identical to diversity.ReportForPopulation
// over Population(); the incremental-vs-cold property test pins that
// equivalence.
func (s *Snapshot) Report() (diversity.Report, error) {
	abundance := make([]int, len(s.buckets))
	for i, sb := range s.buckets {
		abundance[i] = sb.Count
	}
	return diversity.ReportForAggregates(s.Distribution, s.members, abundance, s.classes)
}

// groupRun is one changed bucket's groups in attack order (Units
// descending), the sign they count with — −1 for a superseded bucket's, +1
// for a re-exported one's — and next, the first group not yet merged.
type groupRun struct {
	groups []*vuln.GroupSpec
	sign   int
	next   int
}

// runHead is a merge heap entry: the Units of a run's next group, and the
// run. It holds no pointer, so moving entries costs no write barrier.
type runHead struct {
	units uint64
	run   int
}

// mergeClasses returns the power-class histogram prev becomes when the
// runs' groups are taken out (sign −1) and put in (sign +1): one merge of
// prev with the runs, each already descending, through a max-heap on the
// runs' heads. It costs O(C + Σg·log Δ) for C classes in prev, Σg groups
// in Δ runs, and writes a fresh slice: prev stays as its snapshot holds
// it. A class that empties out is dropped.
func mergeClasses(prev []diversity.PowerClass, runs []groupRun) []diversity.PowerClass {
	var small [4]runHead // a mutation touches one or two buckets: up to four runs, unallocated
	h, grow := small[:0], 0
	for i, run := range runs {
		if len(run.groups) > 0 {
			h = append(h, runHead{run.groups[0].Units, i})
		}
		if run.sign > 0 {
			grow += len(run.groups)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := make([]diversity.PowerClass, 0, len(prev)+grow)
	for len(h) > 0 {
		u, n := h[0].units, 0
		for len(h) > 0 && h[0].units == u {
			run := &runs[h[0].run]
			n += run.sign * len(run.groups[run.next].Names)
			if run.next++; run.next < len(run.groups) {
				h[0].units = run.groups[run.next].Units
			} else {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0)
		}
		for len(prev) > 0 && prev[0].Units > u {
			out = append(out, prev[0])
			prev = prev[1:]
		}
		if len(prev) > 0 && prev[0].Units == u {
			n += prev[0].Count
			prev = prev[1:]
		}
		if n < 0 {
			panic("registry: power-class histogram took out members it never counted")
		}
		if n > 0 {
			out = append(out, diversity.PowerClass{Units: u, Count: n})
		}
	}
	out = append(out, prev...)
	if cap(out) > 2*len(out) {
		// A first snapshot's bound counts every group: the histogram is
		// kept as long as its snapshot, so keep it at its length.
		out = slices.Clone(out)
	}
	return out
}

// siftDown restores the max-heap order on units below h[i].
func siftDown(h []runHead, i int) {
	for {
		top, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].units > h[top].units {
			top = l
		}
		if r < len(h) && h[r].units > h[top].units {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// errOverflow refuses a weighting that takes the summed power past the
// ceiling every sum over the membership relies on.
var errOverflow = errors.New("registry: weighted power is past the ceiling of vuln.MaxPowerUnits units")

// exportBucketLocked builds the immutable snapshot view of a bucket under
// w: the bucket's own groups in attack order, freezing each so a later
// mutation replaces it instead of editing it. A group whose units w changes
// is exported as a weighted copy sharing its names. r.mu (read) and
// r.snapMu must be held.
func (r *Registry) exportBucketLocked(b *bucket, w Weighting) (*SnapBucket, error) {
	sb := &SnapBucket{
		BucketSpec: vuln.BucketSpec{Key: b.label, Config: b.cfg},
		Count:      b.count,
	}
	sb.Groups = make([]*vuln.GroupSpec, 0, len(b.groups))
	for _, g := range slices.Backward(b.groups) { // raw units descending
		wu, err := w.weigh(g.Units, g.tier)
		if err != nil {
			return nil, errOverflow
		}
		var ok bool
		if sb.Units, ok = vuln.AddUnits(sb.Units, len(g.Names), wu); !ok {
			return nil, errOverflow
		}
		spec := &g.GroupSpec
		if wu != g.Units {
			spec = &vuln.GroupSpec{Units: wu, Latency: g.Latency, Names: g.Names}
		}
		sb.Groups = append(sb.Groups, spec)
		g.frozen = true
	}
	// Tier multipliers can reorder the raw order.
	if !slices.IsSortedFunc(sb.Groups, vuln.AttackOrder) {
		slices.SortStableFunc(sb.Groups, vuln.AttackOrder)
	}
	return sb, nil
}

// deltaSnapshotLocked builds the snapshot at the current generation by
// re-exporting only the changed buckets and sharing every other
// *SnapBucket with prev, and merges the changed buckets' groups into prev's
// power-class histogram: O(B + C + changed groups) instead of O(N log N).
// r.mu (read) and r.snapMu must be held.
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
	runs := make([]groupRun, 0, 2*len(changes))
	i := 0
	for _, ch := range changes {
		for i < len(prev.buckets) && prev.buckets[i].Key < ch.label {
			out = append(out, prev.buckets[i])
			i++
		}
		if i < len(prev.buckets) && prev.buckets[i].Key == ch.label {
			runs = append(runs, groupRun{groups: prev.buckets[i].Groups, sign: -1}) // superseded (or removed) below
			i++
		}
		if ch.b != nil {
			sb, err := r.exportBucketLocked(ch.b, w)
			if err != nil {
				return nil, err
			}
			out = append(out, sb)
			runs = append(runs, groupRun{groups: sb.Groups, sign: +1})
		}
	}
	out = append(out, prev.buckets[i:]...)

	labels := make([]string, len(out))
	units := make([]uint64, len(out))
	members := 0
	for i, sb := range out {
		labels[i], units[i] = sb.Key, sb.Units
		members += sb.Count
	}
	// The bucket list is label-ascending, which is the distribution's
	// canonical order: no map, no re-sort. So the one error left is a
	// total past the ceiling.
	dist, err := diversity.FromSorted(labels, units)
	if err != nil {
		return nil, errOverflow
	}
	return &Snapshot{
		Generation:   r.gen,
		Weighting:    w,
		Distribution: dist,
		buckets:      out,
		members:      members,
		classes:      mergeClasses(prev.classes, runs),
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
			snap:  &Snapshot{},
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
