package vuln

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/config"
)

// GroupSpec is one equivalence group of replicas: identical configuration
// (the enclosing BucketSpec's), equal per-member power, and equal patch
// latency. Members of a group are interchangeable for every assessment
// computation, so the grouped injector reasons about (count × power)
// aggregates instead of individual replicas. Names is sorted ascending. A
// GroupSpec is immutable once handed over: the registry hands its own
// groups to snapshots and replaces, never edits, a group a snapshot holds,
// and a GroupInjector reads the specs it was given on every evaluation.
type GroupSpec struct {
	Units   uint64 // per-member (weighted) voting power in units of 1e-9 (PowerUnits)
	Latency time.Duration
	Names   []string // ascending; shared, read-only
}

// BucketSpec is one configuration bucket: a config-digest key, the
// configuration itself, and the equivalence groups over its members.
// Because the key is the configuration digest, the set of vulnerabilities
// matching a bucket is fixed for the bucket's lifetime — only group
// membership changes under churn. Groups is in AttackOrder with no empty
// group (registry snapshots, the production producer, export them so); a
// GroupInjector then reads the slice in place, and sorts a private copy of
// any other listing. A GroupInjector retains
// the Groups slice (see GroupSpec): replace a bucket by passing a new
// BucketSpec, never by editing the old one.
type BucketSpec struct {
	Key    string // configuration digest string
	Config config.Configuration
	Groups []*GroupSpec
}

// GroupInjector is the O(Δ)-maintainable counterpart of Injector: the same
// exposure index, but over (bucket, group) aggregates instead of individual
// replicas. Evaluating an instant walks each vulnerability's exposed groups
// in attack-priority order (power descending) and resolves the severity
// take per power class, so per-instant cost scales with the number of
// groups, not the population. ApplyBuckets patches only the exposure sets
// whose bucket membership changed, and ApplyCatalog inserts newly
// disclosed vulnerabilities — no full rebuild on churn.
//
// Equivalence with Injector is exact, not approximate: within one power
// class the flat injector takes replicas in ascending name order, and a
// name-ascending selection across a class's groups always takes a prefix
// of each group's (ascending) member list. Dedup across vulnerabilities is
// therefore "longest taken prefix per group", which walkTake maintains in
// per-instant slots. The flat Injector remains the cross-check oracle.
//
// Powers are integer units (GroupSpec.Units), so every sum is exact in any
// order and a fraction is one division of two exact integers. The summed
// units of all buckets must not pass MaxPowerUnits, which registry
// snapshots guarantee.
//
// Each exposure keeps two faults, each with the interval of instants it
// holds on, and each bucket the deduplicated units of both: one set for
// Inject and InjectSummary, at the instant a read last asked for, and one
// for WorstWindow and WorstWindowSummary, at the worst instant the last
// sweep answered, so that neither evicts what the other reuses. The next
// call re-derives only the faults of its set whose exposures' buckets
// changed, that are new, or whose interval does not hold the instant, and
// the dedup of the buckets those faults take from; every other fault is
// the kept one. A kept fault's Compromised slice is shared by every
// injection that lists it and is never written: callers must treat it as
// read-only. The sweep also keeps its critical instants and the bound at
// each across writes (giSweep).
//
// Methods share scratch buffers and must not be called concurrently.
type GroupInjector struct {
	total     uint64 // summed units of all members
	buckets   map[string]*giBucket
	keys      []string        // bucket keys ascending
	exposures []*giExposure   // vulnerability-ID ascending
	known     map[ID]struct{} // vulnerability IDs already indexed

	// The first inject of a set after the build carves the exposures' kept
	// faults of that set out of its keptSlab, so an index that is never
	// injected keeps none, and one that is never swept keeps no
	// worst-instant faults.
	keptSlab [keptSets][]giFault

	// dedup[s] is Σ giBucket.dedup[s] over the live buckets: the
	// deduplicated compromised units at the instant set s was last
	// assembled at.
	dedup [keptSets]uint64
	// applyGen numbers ApplyBuckets calls (giExposure.touched).
	applyGen uint64
	// rec is the fault an evaluation is recording its takes into, nil
	// when the takes are not kept (dedupAt); faults is inject's listing
	// before it is copied out at its exact length.
	rec    *giFault
	faults []Fault

	// Per-instant scratch: taken dedups compromised members across
	// vulnerabilities, holding the longest taken prefix (0 until one is) of
	// every group of the buckets in marked, one run of slots per bucket
	// from its base; a bucket whose mark is not markGen has no slots yet.
	markGen uint64
	marked  []*giBucket
	taken   []int
	open    []giItem    // current exposure's open-window items
	pos     []int       // k-way-merge cursors
	bs      []*giBucket // current exposure's live matching buckets

	// nextBoundary is the earliest disclosure or window close activeAt has
	// seen lie after the instant under evaluation (NextBoundary).
	nextBoundary time.Duration

	sweep      giSweep
	touched    []*giExposure // the exposures an ApplyBuckets call touched
	latScratch []latStep     // latIndex's list of distinct latencies
}

// Kept fault sets: giExposure.kept and giBucket.dedup hold one entry per
// set, the read's and the worst-window sweep's.
const (
	readKept = iota
	worstKept
	keptSets
)

// giSweep is the worst-window sweep's kept state, built by the first sweep
// and carried across writes: the critical instants of [0, horizon] and, at
// each, an upper bound on the compromised units (see rebound). The
// instants can change only when a vulnerability is added, or a bucket with
// exposures is added, removed or replaced by one with other distinct
// latencies; each of those drops the state and the next sweep rebuilds
// it. Any other replacement moves that bucket's share of the bounds, over
// its window alone.
type giSweep struct {
	built    bool
	horizon  time.Duration
	instants []time.Duration
	bound    []uint64
	// exact: every severity is 1, so each bound is its instant's numerator.
	exact bool
	// The last sweep's size (LastSweep).
	lastInstants, lastEvaluated int
}

type giBucket struct {
	cfg        config.Configuration
	groups     []*GroupSpec  // attack order: the spec's own slice, or a sorted copy
	exps       []*giExposure // exposures matching the bucket; rebound sorts them by disclosure
	maxLatency time.Duration
	units      uint64 // Σ members × units: the bucket's share of TotalPower

	// lat is the latency index, built by GroupInjector.latIndex on first
	// use. A bucket is replaced wholesale when its groups change, which
	// drops the index; the kept sweep reads the old bucket's to take its
	// share of the bounds out.
	lat []latStep

	// mark == uint32(GroupInjector.markGen) when the bucket has dedup slots
	// this instant, taken[base+i] for groups[i]. 32 bits keep the bucket in
	// its size class beside dedup; beginInstant clears the marks before
	// they wrap.
	mark uint32
	base int32

	// dedup[s] is the bucket's share of GroupInjector.dedup[s]: Σ over its
	// groups of the longest prefix a kept fault of set s takes × the
	// group's units. It is 0 once ApplyBuckets removes or replaces the
	// bucket: every kept fault that took from it is re-derived by the next
	// inject of its set, whose re-derivation of its dedup then finds
	// nothing.
	dedup [keptSets]uint64
}

// latStep is one entry of a bucket's latency index: a distinct patch
// latency and the summed units of the groups patching that late or later.
type latStep struct {
	latency time.Duration // distinct, ascending
	suffix  uint64        // Σ members × units over groups with latency ≥ this one
}

// giItem is one open (vulnerability, group) exposure at the instant under
// evaluation: the group, and the bucket and index it has there (its dedup
// slot is b.base + i).
type giItem struct {
	g *GroupSpec
	b *giBucket
	i int
}

// giExposure is one vulnerability's matching-bucket set. Because a
// bucket's key is its configuration digest, the set is computed once per
// (vulnerability, bucket) pair — churn never re-matches. The per-instant
// open-item list is merged on the fly from the buckets' power-sorted
// group lists (activeAt), so the exposure itself stores no per-group
// state and construction is O(#buckets) per vulnerability.
type giExposure struct {
	vuln     Vulnerability
	keys     []string // matching bucket keys, ascending
	maxClose time.Duration
	// kept[s] is the fault the last inject of set s derived, nil until one
	// did. touched is the ApplyBuckets call that last emptied their
	// intervals.
	kept    [keptSets]*giFault
	touched uint64
}

// giFault is one exposure's fault over an interval of instants: its
// compromised units, its names when named, and the per-group takes it
// marks in the dedup slots. A fault holds, unchanged, on [from, until) for
// as long as the exposure's buckets do: from is the instant it was derived
// at, until the exposure's next disclosure or window close after it, its
// share of NextBoundary.
//
// The takes are kept in the shape the severity take gives them: every
// group open at from with Units ≥ floor is taken whole, and the boundary
// class below the floor, if the take ended inside one, takes the prefixes
// in partial. That is a few words per fault however many groups it takes.
type giFault struct {
	from, until time.Duration
	units       uint64
	names       []string // Compromised: shared with every injection listing it, never written
	floor       uint64
	partial     []giTake
	exposed     bool // some member was open: the fault is listed
	named       bool // names was derived
}

// giTake is one group's taken prefix: n members of b.groups[i].
type giTake struct {
	b    *giBucket
	i, n int
}

// holds reports whether f answers an injection at t, with names or not.
func (f *giFault) holds(t time.Duration, names bool) bool {
	return f != nil && f.from <= t && t < f.until && (f.named || !names)
}

// NewGroupInjector builds the grouped exposure index from a bucketed view
// of the membership. Bucket keys must be unique; group member names must be
// globally unique and ascending within each group (the registry snapshot
// guarantees both).
func NewGroupInjector(catalog *Catalog, buckets []BucketSpec) (*GroupInjector, error) {
	if catalog == nil {
		return nil, errors.New("vuln: nil catalog")
	}
	vulns := catalog.allSorted()
	gi := &GroupInjector{
		buckets:   make(map[string]*giBucket, len(buckets)),
		keys:      make([]string, 0, len(buckets)),
		exposures: make([]*giExposure, len(vulns)),
		known:     make(map[ID]struct{}, len(vulns)),
	}
	// Buckets, the sorted copies of listings not in attack order, and
	// exposures are carved out of one slab each. ApplyBuckets replaces a
	// bucket by pointing the map at a stand-alone one and ApplyCatalog
	// indexes into a stand-alone exposure, so patching never touches a slab
	// neighbour, and a slab is freed with the last element still in use.
	nGroups := 0
	for _, bs := range buckets {
		nGroups += copiedGroups(bs)
	}
	bucketSlab := make([]giBucket, len(buckets))
	groupSlab := make([]*GroupSpec, nGroups)
	off := 0
	for i, bs := range buckets {
		b := &bucketSlab[i]
		off += b.fill(bs, groupSlab[off:])
		gi.total += b.units
		gi.buckets[bs.Key] = b
		gi.keys = append(gi.keys, bs.Key)
	}
	slices.Sort(gi.keys)
	gi.keys = slices.Compact(gi.keys)
	expSlab := make([]giExposure, len(vulns))
	for i, v := range vulns {
		gi.addVuln(&expSlab[i], v)
		gi.exposures[i] = &expSlab[i]
	}
	return gi, nil
}

// copiedGroups is the number of group pointers a giBucket copies out of
// the spec: 0 when the listing is already in attack order (Units
// descending, no empty group) and is read in place, else its non-empty
// groups, which the bucket sorts into a private copy.
func copiedGroups(bs BucketSpec) int {
	n := 0
	for _, g := range bs.Groups {
		if len(g.Names) > 0 {
			n++
		}
	}
	if n == len(bs.Groups) && slices.IsSortedFunc(bs.Groups, AttackOrder) {
		return 0
	}
	return n
}

// AttackOrder compares two groups in the order BucketSpec.Groups lists
// them: Units descending. The take logic resolves an equal-power class as a
// unit and every sum is over integers, so the order inside a class moves
// nothing.
func AttackOrder(x, y *GroupSpec) int { return cmp.Compare(y.Units, x.Units) }

// newGiBucket builds one stand-alone bucket (ApplyBuckets' unit of change).
func newGiBucket(bs BucketSpec) *giBucket {
	b := new(giBucket)
	b.fill(bs, make([]*GroupSpec, copiedGroups(bs)))
	return b
}

// fill initialises the zero bucket b from the spec and returns
// n = copiedGroups(bs): the spec's groups are read in place when n is 0,
// and otherwise copied to the front of slab and sorted there, so that
// activeAt merges the buckets' lists directly into the attack-priority
// order walkTake consumes.
func (b *giBucket) fill(bs BucketSpec, slab []*GroupSpec) int {
	b.cfg, b.groups = bs.Config, bs.Groups
	n := copiedGroups(bs)
	if n > 0 {
		b.groups = slab[:0:n]
		for _, g := range bs.Groups {
			if len(g.Names) > 0 {
				b.groups = append(b.groups, g)
			}
		}
		slices.SortFunc(b.groups, AttackOrder)
	}
	for _, g := range b.groups {
		b.maxLatency = max(b.maxLatency, g.Latency)
		b.units += uint64(len(g.Names)) * g.Units
	}
	return n
}

// latIndex returns b's latency index, building it on first use.
// Under any vulnerability the groups still open at t are those with
// latency > t − PatchAt — a suffix of this index — so one lookup gives the
// power an exposure can reach in the bucket, and the distinct latencies are
// the bucket's distinct window-close offsets. Built lazily, because most
// buckets of a short-lived injector are never swept. A bucket has few
// distinct latencies and many groups, so each group's units are summed into
// its latency's entry of a short sorted list in gi's scratch, which gains an
// entry only at a latency not seen yet, and the index the bucket keeps is
// that list copied at its exact length.
func (gi *GroupInjector) latIndex(b *giBucket) []latStep {
	if b.lat != nil || len(b.groups) == 0 {
		return b.lat
	}
	lat := gi.latScratch[:0]
	for _, g := range b.groups {
		i := firstOpen(lat, g.Latency-1)
		if i == len(lat) || lat[i].latency != g.Latency {
			lat = slices.Insert(lat, i, latStep{latency: g.Latency})
		}
		lat[i].suffix += uint64(len(g.Names)) * g.Units
	}
	gi.latScratch = lat
	b.lat = suffixSums(slices.Clone(lat))
	return b.lat
}

// suffixSums turns per-latency units into the index's suffix sums.
func suffixSums(lat []latStep) []latStep {
	for i := len(lat) - 2; i >= 0; i-- {
		lat[i].suffix += lat[i+1].suffix
	}
	return lat
}

// firstOpen is the index of the first latency in lat greater than x, or
// len(lat): the groups open at x are those of lat[firstOpen:], and
// lat[firstOpen].suffix is their summed units. Latencies are whole
// nanoseconds, so firstOpen(lat, l−1) finds latency l.
func firstOpen(lat []latStep, x time.Duration) int {
	lo, hi := 0, len(lat)
	for lo < hi {
		if mid := (lo + hi) / 2; lat[mid].latency > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// addVuln indexes one vulnerability into the zero exposure e: match
// against every bucket. Exposures are kept even when currently empty — a
// later bucket change may expose them. gi.exposures stays ID-sorted because
// NewGroupInjector feeds vulnerabilities in ID order; ApplyCatalog inserts
// at the sorted position.
func (gi *GroupInjector) addVuln(e *giExposure, v Vulnerability) {
	e.vuln = v
	for _, key := range gi.keys { // ascending, so e.keys comes out sorted
		if b := gi.buckets[key]; v.Affects(b.cfg) {
			e.keys = append(e.keys, key)
			b.exps = append(b.exps, e)
		}
	}
	gi.refreshExposure(e)
	gi.known[v.ID] = struct{}{}
}

// refreshExposure recomputes an exposure's derived bounds after its
// matching buckets changed, compacting keys whose bucket emptied out.
// O(#matching buckets).
func (gi *GroupInjector) refreshExposure(e *giExposure) {
	keys := e.keys[:0]
	e.maxClose = 0
	for _, key := range e.keys {
		b := gi.buckets[key]
		if b == nil {
			continue
		}
		keys = append(keys, key)
		if c := e.vuln.PatchAt + b.maxLatency; c > e.maxClose {
			e.maxClose = c
		}
	}
	clear(e.keys[len(keys):]) // a dropped key stays unreachable
	e.keys = keys
}

// ApplyBuckets patches the index after membership churn: changed holds the
// buckets whose group structure changed (including brand-new buckets),
// removed the keys of buckets that emptied out. Only exposures matching an
// affected bucket are touched: each refresh is O(its matching buckets), and
// its kept faults are re-derived by the next inject of each set. A
// replaced bucket's share of the kept sweep bounds is moved over its
// window; a change that can move the critical instants drops them.
// Applying the same change twice is harmless (group lists are replaced
// wholesale), which lets callers retry after a partial failure upstream.
func (gi *GroupInjector) ApplyBuckets(changed []BucketSpec, removed []string) {
	gi.applyGen++
	for _, key := range removed {
		b := gi.buckets[key]
		if b == nil {
			continue
		}
		for _, e := range b.exps {
			gi.touch(e)
		}
		if len(b.exps) > 0 {
			gi.sweep.built = false // its window closes may be critical instants no more
		}
		gi.drop(b)
		delete(gi.buckets, key)
		i := sort.SearchStrings(gi.keys, key)
		gi.keys = slices.Delete(gi.keys, i, i+1)
	}
	for _, bs := range changed {
		nb := newGiBucket(bs)
		old := gi.buckets[bs.Key]
		gi.buckets[bs.Key] = nb
		gi.total += nb.units
		if old == nil {
			// New bucket: its matching vulnerability set is computed once
			// here and stays valid for the bucket's lifetime (the key is
			// the configuration digest, so the config never changes).
			gi.keys = slices.Insert(gi.keys, sort.SearchStrings(gi.keys, bs.Key), bs.Key)
			for _, e := range gi.exposures {
				if e.vuln.Affects(bs.Config) {
					nb.exps = append(nb.exps, e)
					i := sort.SearchStrings(e.keys, bs.Key)
					e.keys = append(e.keys, "")
					copy(e.keys[i+1:], e.keys[i:])
					e.keys[i] = bs.Key
					gi.touch(e)
				}
			}
			if len(nb.exps) > 0 {
				gi.sweep.built = false // its window closes are new critical instants
			}
			continue
		}
		gi.drop(old)
		nb.exps = old.exps
		for _, e := range nb.exps {
			gi.touch(e)
		}
		gi.resweep(old, nb)
	}
	for _, e := range gi.touched {
		gi.refreshExposure(e)
	}
	clear(gi.touched)
	gi.touched = gi.touched[:0]
	gi.unpin()
}

// touch empties the intervals of e's kept faults, so the next inject of
// each set re-derives them, and lists e for refreshExposure once per
// ApplyBuckets.
func (gi *GroupInjector) touch(e *giExposure) {
	if e.touched == gi.applyGen {
		return
	}
	e.touched = gi.applyGen
	for _, f := range e.kept {
		if f != nil {
			f.until = f.from
		}
	}
	gi.touched = append(gi.touched, e)
}

// drop takes a removed or replaced bucket out of the totals.
func (gi *GroupInjector) drop(b *giBucket) {
	gi.total -= b.units
	for s, d := range b.dedup {
		gi.dedup[s] -= d
	}
	b.dedup = [keptSets]uint64{}
}

// resweep moves a replaced bucket's share of the kept sweep bounds from
// old's groups to nb's. Both have the same exposures, so when their
// distinct latencies agree the two shares span the same window and the
// instants stay; when they differ, so do the window closes, and the kept
// state is dropped. A bucket the kept state holds has its latency index
// built: the sweep that built the state, or the resweep that moved its
// share, built it.
func (gi *GroupInjector) resweep(old, nb *giBucket) {
	if !gi.sweep.built || len(nb.exps) == 0 {
		return
	}
	if sameLatencies(gi.latIndex(nb), old.lat) {
		gi.rebound(nb, nb.lat, old.lat)
	} else {
		gi.sweep.built = false
	}
}

// sameLatencies reports whether two latency indexes list the same distinct
// latencies.
func sameLatencies(x, y []latStep) bool {
	return slices.EqualFunc(x, y, func(a, b latStep) bool { return a.latency == b.latency })
}

// ApplyCatalog indexes any catalog vulnerabilities not yet known to the
// injector (Catalog only ever grows). Each new vulnerability is matched
// against all buckets once and inserted in ID order; its disclosure and
// window closes are new critical instants, so the kept sweep state goes.
func (gi *GroupInjector) ApplyCatalog(catalog *Catalog) {
	for _, v := range catalog.allSorted() {
		if _, ok := gi.known[v.ID]; ok {
			continue
		}
		gi.sweep.built = false
		e := new(giExposure)
		gi.addVuln(e, v)
		i := sort.Search(len(gi.exposures), func(i int) bool {
			return gi.exposures[i].vuln.ID >= v.ID
		})
		gi.exposures = append(gi.exposures, nil)
		copy(gi.exposures[i+1:], gi.exposures[i:])
		gi.exposures[i] = e
	}
}

func (gi *GroupInjector) beginInstant() {
	gi.markGen++
	if uint32(gi.markGen) == 0 {
		gi.clearMarks()
	}
	gi.marked, gi.taken = gi.marked[:0], gi.taken[:0]
	gi.nextBoundary = Never
}

// clearMarks zeroes the mark of every bucket slots can meet — the live
// ones: a removed or replaced bucket never has slots again — and moves
// markGen past the 0 a new bucket starts at, so that a mark from 2^32
// instants ago never reads as this instant's.
func (gi *GroupInjector) clearMarks() {
	for _, b := range gi.buckets {
		b.mark = 0
	}
	gi.markGen++
}

// slots opens b's dedup slots for this instant, a zeroed run of them, on
// b's first use.
func (gi *GroupInjector) slots(b *giBucket) {
	if b.mark != uint32(gi.markGen) {
		b.mark, b.base = uint32(gi.markGen), int32(len(gi.taken))
		gi.taken = slices.Grow(gi.taken, len(b.groups))[:len(gi.taken)+len(b.groups)]
		clear(gi.taken[b.base:])
		gi.marked = append(gi.marked, b)
	}
}

// Never is the NextBoundary of a fault picture that cannot change any more.
const Never = time.Duration(math.MaxInt64)

// NextBoundary returns the first critical instant after the instant t that
// Inject, InjectSummary or TotalFractionAt last evaluated: the earliest
// disclosure or window close strictly later than t, or Never. The fault
// picture is a step function of time, so on [t, NextBoundary) every
// evaluation of an unchanged index returns the same picture.
func (gi *GroupInjector) NextBoundary() time.Duration { return gi.nextBoundary }

// activeAt fills gi.open with the exposure's open-window items at t in
// power-descending order — a k-way merge of the matching buckets'
// pre-sorted group lists, computed on the fly so no per-exposure item
// list ever has to be built or patched — and returns the open member
// count and the first instant after t at which the open set changes: the
// disclosure or the earliest open window's close (Never when there is
// none). The single-bucket case (the common one: a vulnerability names one
// product version) is a straight filtered copy.
func (gi *GroupInjector) activeAt(e *giExposure, t time.Duration) (m int, until time.Duration) {
	gi.open = gi.open[:0]
	if t < e.vuln.Disclosed {
		return 0, e.vuln.Disclosed
	}
	if t >= e.maxClose {
		return 0, Never
	}
	until = Never
	bs := gi.bs[:0]
	for _, key := range e.keys {
		if b := gi.buckets[key]; b != nil {
			bs = append(bs, b)
		}
	}
	gi.bs = bs[:0]
	if len(bs) == 1 {
		b := bs[0]
		gi.slots(b)
		for i, g := range b.groups {
			if c := e.vuln.PatchAt + g.Latency; t < c {
				gi.open = append(gi.open, giItem{g: g, b: b, i: i})
				until = min(until, c)
				m += len(g.Names)
			}
		}
		return m, until
	}
	if cap(gi.pos) < len(bs) {
		gi.pos = make([]int, len(bs))
	}
	pos := gi.pos[:len(bs)]
	for i := range pos {
		pos[i] = 0
	}
	for {
		best := -1
		for i, b := range bs {
			if pos[i] >= len(b.groups) {
				continue
			}
			if best < 0 || b.groups[pos[i]].Units > bs[best].groups[pos[best]].Units {
				best = i
			}
		}
		if best < 0 {
			return m, until
		}
		b, i := bs[best], pos[best]
		g := b.groups[i]
		pos[best]++
		if c := e.vuln.PatchAt + g.Latency; t < c {
			gi.slots(b)
			gi.open = append(gi.open, giItem{g: g, b: b, i: i})
			until = min(until, c)
			m += len(g.Names)
		}
	}
}

// markTake records that n members (a name-ascending prefix) of group i of
// b are compromised this instant; the longest prefix across
// vulnerabilities wins.
func (gi *GroupInjector) markTake(b *giBucket, i, n int) {
	s := int(b.base) + i
	gi.taken[s] = max(gi.taken[s], n)
}

// markKept marks in b's slots the takes e's kept fault f has there: every
// group open at f.from at or above its floor whole, then its boundary
// prefixes.
func (gi *GroupInjector) markKept(e *giExposure, f *giFault, b *giBucket) {
	if !f.exposed {
		return
	}
	closed := f.from - e.vuln.PatchAt // a group is open while its latency is greater
	for i, g := range b.groups {
		if g.Units < f.floor {
			break
		}
		if g.Latency > closed {
			gi.markTake(b, i, len(g.Names))
		}
	}
	for _, tk := range f.partial {
		if tk.b == b {
			gi.markTake(b, tk.i, tk.n)
		}
	}
}

// keepTakes records in the fault being derived, if any, how its take
// ended: whole classes down to units u, and, when partial, the prefixes
// resolveBoundary marked in the class of units u.
func (gi *GroupInjector) keepTakes(u uint64, partial bool) {
	if f := gi.rec; f != nil {
		f.floor = u
		if partial {
			f.floor = u + 1
		}
	}
}

// walkTake applies one exposure's severity take of k members to the dedup
// marks, walking gi.open by power class, and returns the fault's units.
// Without names (out == nil) a full class is taken whole (every group's
// complete prefix); any other class — the one containing the k-th member,
// or every class when names are asked for — is resolved by name-merge
// across its groups, which appends the taken names in ascending order:
// exactly the flat injector's (power desc, name asc) selection and listing.
func (gi *GroupInjector) walkTake(k int, out *[]string) uint64 {
	var units uint64
	taken := 0
	open := gi.open
	for i := 0; i < len(open) && taken < k; {
		j, classCount := i, 0
		u := open[i].g.Units
		for j < len(open) && open[j].g.Units == u {
			classCount += len(open[j].g.Names)
			j++
		}
		r := min(classCount, k-taken)
		if r == classCount && out == nil {
			for _, it := range open[i:j] {
				gi.markTake(it.b, it.i, len(it.g.Names))
			}
		} else {
			gi.resolveBoundary(open[i:j], r, out)
		}
		gi.keepTakes(u, r < classCount)
		units += uint64(r) * u
		taken += r
		i = j
	}
	return units
}

// resolveBoundary selects the r lexicographically-smallest member names
// across the equal-power items (the boundary power class), marks the
// per-group prefix lengths — kept as the derived fault's partial takes
// when they leave some of the class — and, when out is non-nil, appends
// the selected names in ascending order. The single-group case (the common
// one: boundary classes usually live inside one group) takes the prefix
// in one step, and in one copy when names are requested.
func (gi *GroupInjector) resolveBoundary(items []giItem, r int, out *[]string) {
	if len(items) == 1 {
		if out != nil {
			*out = append(*out, items[0].g.Names[:r]...)
		}
		gi.markTake(items[0].b, items[0].i, r)
		if f := gi.rec; f != nil && r < len(items[0].g.Names) {
			f.partial = append(f.partial, giTake{b: items[0].b, i: items[0].i, n: r})
		}
		return
	}
	if cap(gi.pos) < len(items) {
		gi.pos = make([]int, len(items))
	}
	pos := gi.pos[:len(items)]
	for i := range pos {
		pos[i] = 0
	}
	for n := 0; n < r; n++ {
		best := -1
		for i := range items {
			if pos[i] >= len(items[i].g.Names) {
				continue
			}
			if best < 0 || items[i].g.Names[pos[i]] < items[best].g.Names[pos[best]] {
				best = i
			}
		}
		if out != nil {
			*out = append(*out, items[best].g.Names[pos[best]])
		}
		pos[best]++
	}
	cut := false // the take leaves some of the class: keep its prefixes
	if gi.rec != nil {
		n := 0
		for _, it := range items {
			n += len(it.g.Names)
		}
		cut = r < n
	}
	for i, it := range items {
		if pos[i] > 0 {
			gi.markTake(it.b, it.i, pos[i])
			if cut {
				gi.rec.partial = append(gi.rec.partial, giTake{b: it.b, i: it.i, n: pos[i]})
			}
		}
	}
}

// bucketDedup sums b's taken prefixes this instant: the bucket's
// deduplicated compromised units.
func (gi *GroupInjector) bucketDedup(b *giBucket) uint64 {
	var dedup uint64
	for i, n := range gi.taken[b.base : int(b.base)+len(b.groups)] {
		dedup += uint64(n) * b.groups[i].Units
	}
	return dedup
}

// dedupUnits sums the taken prefixes: the deduplicated compromised units
// of the current instant.
func (gi *GroupInjector) dedupUnits() uint64 {
	var dedup uint64
	for _, b := range gi.marked {
		dedup += gi.bucketDedup(b)
	}
	return dedup
}

// TotalFractionAt computes only the deduplicated compromised power fraction
// at t — the quantity WorstWindow maximises — in O(open groups), without
// materialising fault lists and without allocating after the first call.
// It neither reads nor replaces the faults Inject keeps.
func (gi *GroupInjector) TotalFractionAt(t time.Duration) float64 {
	return UnitFraction(gi.dedupAt(t), gi.total)
}

// dedupAt is the numerator of TotalFractionAt.
func (gi *GroupInjector) dedupAt(t time.Duration) uint64 {
	if gi.total == 0 {
		return 0
	}
	gi.beginInstant()
	for _, e := range gi.exposures {
		m, until := gi.activeAt(e, t)
		gi.nextBoundary = min(gi.nextBoundary, until)
		if m == 0 {
			continue
		}
		gi.walkTake(SeverityTake(m, e.vuln.Severity), nil)
	}
	return gi.dedupUnits()
}

// Inject computes the full fault picture at instant t, byte-equivalent to
// the flat Injector's: per-vulnerability compromised names in (power desc,
// name asc) order, power sums, and the deduplicated total. Each fault's
// Compromised slice is shared with the injector and with every later
// injection that lists the same fault: read-only.
func (gi *GroupInjector) Inject(t time.Duration) Injection {
	return gi.inject(t, true, readKept)
}

// InjectSummary is Inject without materialising compromised-name lists:
// each Fault carries its power and fraction but a nil Compromised. At large
// scale (hundreds of thousands of exposed members per vulnerability) this
// is the difference between O(groups) and O(population) per assessment.
func (gi *GroupInjector) InjectSummary(t time.Duration) Injection {
	return gi.inject(t, false, readKept)
}

// inject assembles the fault picture at t from each exposure's kept fault
// of set s, re-deriving those that do not hold at t: every one after the
// build, the ones ApplyBuckets touched or ApplyCatalog added, and the
// ones t lies outside the interval of. It stores what it re-derives and
// then re-derives the dedup of only the buckets those faults took from or
// take from now. Reads assemble the read's set and the worst-window sweep
// its own, at the worst instant, so neither evicts the other's faults.
func (gi *GroupInjector) inject(t time.Duration, names bool, s int) Injection {
	gi.beginInstant()
	faults := gi.faults[:0]
	var sum float64
	derived := 0
	for _, e := range gi.exposures {
		f := e.kept[s]
		if !f.holds(t, names) {
			if f == nil {
				f = gi.keptFault(s)
				e.kept[s] = f
			}
			if f.exposed {
				// The buckets f took from so far need their dedup
				// re-derived even where it takes nothing now.
				for _, key := range e.keys {
					if b := gi.buckets[key]; b != nil {
						gi.slots(b)
					}
				}
			}
			gi.evaluate(e, f, t, names)
			derived++
		}
		gi.nextBoundary = min(gi.nextBoundary, f.until)
		if !f.exposed {
			continue
		}
		fault := Fault{Vuln: e.vuln.ID, Power: UnitsPower(f.units), PowerFraction: UnitFraction(f.units, gi.total)}
		if names {
			fault.Compromised = f.names
		}
		faults = append(faults, fault)
		sum += fault.PowerFraction
	}
	// When every fault was re-derived (the first inject after a build),
	// every take is marked already.
	dedup := gi.redup(s, derived < len(gi.exposures))
	inj := Injection{At: t, SumFraction: sum, TotalFraction: UnitFraction(dedup, gi.total)}
	if len(faults) > 0 {
		inj.Faults = slices.Clone(faults)
	}
	clear(faults) // the scratch pins no names
	gi.faults = faults[:0]
	return inj
}

// unpin clears the per-instant scratch out to its capacity, so that no
// bucket ApplyBuckets replaced or removed stays reachable from it, with the
// groups and names it holds, until some evaluation happens to overwrite it.
func (gi *GroupInjector) unpin() {
	clear(gi.open[:cap(gi.open)])
	clear(gi.bs[:cap(gi.bs)])
	clear(gi.marked[:cap(gi.marked)])
}

// keptFault carves a kept fault of set s for an exposure out of
// keptSlab[s]: the first inject of the set after a build carves one per
// exposure, from a slab that holds them all. An exposure ApplyCatalog adds
// later gets one of its own.
func (gi *GroupInjector) keptFault(s int) *giFault {
	slab := gi.keptSlab[s]
	if len(slab) == cap(slab) {
		if len(slab) > 0 {
			return new(giFault)
		}
		slab = make([]giFault, 0, len(gi.exposures))
	}
	slab = slab[:len(slab)+1]
	gi.keptSlab[s] = slab
	return &slab[len(slab)-1]
}

// evaluate derives e's fault at t into f, marking its takes in the dedup
// slots and recording them in f: the severity take of its open members,
// their names when names is set, and the interval from t to its next
// boundary on which it holds.
func (gi *GroupInjector) evaluate(e *giExposure, f *giFault, t time.Duration, names bool) {
	m, until := gi.activeAt(e, t)
	clear(f.partial) // so no take beyond the length pins a bucket
	*f = giFault{from: t, until: until, partial: f.partial[:0], exposed: m > 0, named: names}
	if m == 0 {
		return
	}
	k := SeverityTake(m, e.vuln.Severity)
	gi.rec = f
	var out *[]string
	if names {
		f.names = make([]string, 0, k)
		out = &f.names
	}
	f.units = gi.walkTake(k, out)
	gi.rec = nil
}

// redup re-derives set s's dedup of the buckets this inject opened slots
// for — those a re-derived fault took from or takes from now — adding,
// when kept is set, the takes of every kept fault of the set on them (a
// re-derived fault's are marked already, and marking a take twice changes
// nothing), and returns the set's deduplicated units of all buckets.
func (gi *GroupInjector) redup(s int, kept bool) uint64 {
	for _, b := range gi.marked {
		for _, e := range b.exps {
			if f := e.kept[s]; f != nil && kept {
				gi.markKept(e, f, b)
			}
		}
		dedup := gi.bucketDedup(b)
		gi.dedup[s] += dedup - b.dedup[s]
		b.dedup[s] = dedup
	}
	return gi.dedup[s]
}

// CriticalInstants returns the sorted, deduplicated instants in
// [0, horizon] where the fault picture can change: 0, each disclosure, and
// each (vulnerability, group) window close. Groups partition replicas by
// patch latency, so the distinct close instants are exactly the flat
// injector's per-replica ones — and a bucket's latency index already holds
// its distinct latencies, so the walk is O(vulns × latencies), not
// O(vulns × groups).
func (gi *GroupInjector) CriticalInstants(horizon time.Duration) []time.Duration {
	return gi.criticalInstants(horizon, nil)
}

// criticalInstants is CriticalInstants appending into buf's storage.
func (gi *GroupInjector) criticalInstants(horizon time.Duration, buf []time.Duration) []time.Duration {
	events := append(buf[:0], 0)
	for _, e := range gi.exposures {
		if d := e.vuln.Disclosed; d > 0 && d <= horizon {
			events = append(events, d)
		}
		for _, key := range e.keys {
			b := gi.buckets[key]
			if b == nil {
				continue
			}
			for _, st := range gi.latIndex(b) {
				if c := e.vuln.PatchAt + st.latency; c > 0 && c <= horizon {
					events = append(events, c)
				}
			}
		}
	}
	slices.Sort(events)
	return slices.Compact(events)
}

// WorstWindow sweeps the critical instants of [0, horizon] and returns the
// full injection at the earliest instant maximising the deduplicated
// compromised fraction — semantics identical to Injector.WorstWindow.
func (gi *GroupInjector) WorstWindow(horizon time.Duration) (Injection, error) {
	return gi.worstWindow(horizon, true)
}

// WorstWindowSummary is WorstWindow reporting summary faults (nil
// Compromised lists); see InjectSummary.
func (gi *GroupInjector) WorstWindowSummary(horizon time.Duration) (Injection, error) {
	return gi.worstWindow(horizon, false)
}

// LastSweep reports how many critical instants the most recent worst-window
// sweep covered and at how many of them it had to evaluate the exact
// fraction. evaluated == instants means the bound pruned nothing and the
// sweep cost what the flat reference's does; it is never more.
func (gi *GroupInjector) LastSweep() (instants, evaluated int) {
	return gi.sweep.lastInstants, gi.sweep.lastEvaluated
}

// sweepState brings the kept critical instants and bounds up to date for
// horizon, rebuilding both when a change dropped them or the horizon is
// another one.
func (gi *GroupInjector) sweepState(horizon time.Duration) {
	sw := &gi.sweep
	if sw.built && sw.horizon == horizon {
		return
	}
	sw.instants = gi.criticalInstants(horizon, sw.instants)
	sw.bound = slices.Grow(sw.bound[:0], len(sw.instants))[:len(sw.instants)]
	clear(sw.bound)
	sw.exact = true
	for _, e := range gi.exposures {
		sw.exact = sw.exact && e.vuln.Severity >= 1
	}
	for _, key := range gi.keys {
		if b := gi.buckets[key]; len(b.exps) > 0 {
			gi.rebound(b, gi.latIndex(b), nil)
		}
	}
	sw.built, sw.horizon = true, horizon
}

// rebound adds to the kept bounds b's share summed from the latency index
// lat, and takes away the one summed from old (nil: none, else with lat's
// latencies), over b's window. Inside a bucket the groups open at t under a
// vulnerability are those with latency > t − PatchAt, so the open sets of
// all disclosed vulnerabilities matching the bucket are nested and their
// union is the one with the latest PatchAt; whatever the severities take
// lies inside that union. Summing its power over the buckets bounds the
// numerator of the fraction from above, and equals it when every severity
// is 1. The sums are exact integers, so a share taken out and another put
// in leave every bound what a fresh sum gives.
func (gi *GroupInjector) rebound(b *giBucket, lat, old []latStep) {
	instants, bound := gi.sweep.instants, gi.sweep.bound
	exps := b.exps
	slices.SortFunc(exps, func(x, y *giExposure) int { return cmp.Compare(x.vuln.Disclosed, y.vuln.Disclosed) })
	// Walk the instants from the first disclosure on, tracking the latest
	// PatchAt among the vulnerabilities disclosed so far. While nothing is
	// open, jump straight to the next disclosure (itself a critical
	// instant whenever it lies in the horizon).
	next := 0
	var patch time.Duration
	for i, _ := slices.BinarySearch(instants, exps[0].vuln.Disclosed); i < len(instants); {
		t := instants[i]
		for ; next < len(exps) && exps[next].vuln.Disclosed <= t; next++ {
			if p := exps[next].vuln.PatchAt; next == 0 || p > patch {
				patch = p
			}
		}
		if t-patch >= b.maxLatency {
			if next == len(exps) {
				break
			}
			i, _ = slices.BinarySearch(instants, exps[next].vuln.Disclosed)
			continue
		}
		if j := firstOpen(lat, t-patch); j < len(lat) {
			bound[i] += lat[j].suffix
			if old != nil {
				bound[i] -= old[j].suffix
			}
		}
		i++
	}
}

// worstWindow is the bound-and-prune sweep over numerators of the one
// fixed total, on the kept instants and bounds. It seeds the search at the
// first instant with the largest bound, then walks the instants evaluating
// the exact numerator only where the bound can still win. An instant's
// numerator sums a subset of what its bound sums, so one whose bound is
// below the best is not a maximiser. Ties go to the earlier instant — the
// flat sweep's "first strict improvement in time order" — so one later than
// the best instant whose bound equals the best cannot win either: at most
// it ties. The answer is the sweep's kept faults at the best instant: after
// a write, only the ones the write touched are derived again.
//
// When every severity is 1 each bound is its instant's numerator, so the
// seed is the answer and the walk evaluates nothing: the seed is assembled
// from the kept faults directly. Otherwise the seed can lose, and it is
// evaluated without names or kept faults, so that the kept set stays at the
// answer from one sweep to the next instead of moving to the seed and back.
// Either way the answer needs the bounds to be upper bounds only: one left
// too high costs evaluations, not a wrong answer.
func (gi *GroupInjector) worstWindow(horizon time.Duration, names bool) (Injection, error) {
	if horizon < 0 {
		return Injection{}, errors.New("vuln: negative horizon " + horizon.String())
	}
	gi.sweep.lastInstants, gi.sweep.lastEvaluated = 0, 0
	if gi.total == 0 {
		return Injection{}, nil
	}
	gi.sweepState(horizon)
	instants, bound := gi.sweep.instants, gi.sweep.bound
	seed := 0
	for i, v := range bound {
		if v > bound[seed] {
			seed = i
		}
	}
	bestT := instants[seed]
	var inj Injection
	var best uint64
	if gi.sweep.exact {
		inj, best = gi.inject(bestT, names, worstKept), gi.dedup[worstKept]
	} else {
		best = gi.dedupAt(bestT)
	}
	evaluated := 1
	for i, t := range instants {
		if i == seed || bound[i] < best || (bound[i] == best && t > bestT) {
			continue
		}
		evaluated++
		if n := gi.dedupAt(t); n > best || (n == best && t < bestT) {
			bestT, best = t, n
		}
	}
	gi.sweep.lastInstants, gi.sweep.lastEvaluated = len(instants), evaluated
	if best == 0 {
		// Match Injector.WorstWindow: no instant compromises anything, so
		// report the zero injection rather than a fault-free picture at 0.
		return Injection{}, nil
	}
	if evaluated > 1 || !gi.sweep.exact {
		return gi.inject(bestT, names, worstKept), nil
	}
	return inj, nil
}
