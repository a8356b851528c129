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
// aggregates instead of individual replicas. Names is sorted ascending and
// treated as immutable: producers (the registry snapshot) share the slice
// and copy-on-write when membership changes.
type GroupSpec struct {
	Power   float64 // per-member (weighted) voting power
	Latency time.Duration
	Names   []string // ascending; shared, read-only
}

// BucketSpec is one configuration bucket: a config-digest key, the
// configuration itself, and the equivalence groups over its members.
// Because the key is the configuration digest, the set of vulnerabilities
// matching a bucket is fixed for the bucket's lifetime — only group
// membership changes under churn.
type BucketSpec struct {
	Key    string // configuration digest string
	Config config.Configuration
	Groups []GroupSpec
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
// per-group marks. The flat Injector remains the cross-check oracle.
//
// Methods share scratch buffers and must not be called concurrently.
type GroupInjector struct {
	totalPower float64
	buckets    map[string]*giBucket
	keys       []string        // bucket keys ascending: the one order sums over buckets are taken in
	exposures  []*giExposure   // vulnerability-ID ascending
	known      map[ID]struct{} // vulnerability IDs already indexed

	// Rebuild carves buckets, groups, group-pointer lists and exposures out
	// of these slabs and reuses them, with the storage their elements hold,
	// on the next Rebuild — unless ApplyBuckets has let the bucket slabs go.
	bucketSlab []giBucket
	groupSlab  []giGroup
	ptrSlab    []*giGroup
	expSlab    []giExposure

	// Per-instant scratch: marks on groups dedup compromised members
	// across vulnerabilities (longest prefix wins); touched lists the
	// groups marked this instant so summing them is O(marked groups).
	markGen uint64
	touched []*giGroup
	open    []giItem    // current exposure's open-window items
	pos     []int       // k-way-merge cursors
	bs      []*giBucket // current exposure's live matching buckets

	// nextBoundary is the earliest disclosure or window close activeAt has
	// seen lie after the instant under evaluation (NextBoundary).
	nextBoundary time.Duration

	// Per-sweep scratch (worstWindow): the critical instants, the upper
	// bound on the compromised power at each, and one bucket's exposures
	// in disclosure order. sweepInstants and sweepEvaluated describe the
	// last sweep (LastSweep).
	instants       []time.Duration
	bound          []float64
	byDisclosed    []*giExposure
	sweepInstants  int
	sweepEvaluated int
	latScratch     []latStep // latIndex's sort buffer
}

type giBucket struct {
	cfg        config.Configuration
	groups     []*giGroup    // power-descending
	exps       []*giExposure // exposures matching the bucket, in indexing order
	maxLatency time.Duration
	power      float64 // Σ members × power: the bucket's share of TotalPower

	// lat is the latency index, built by GroupInjector.latIndex on first
	// use. A bucket is replaced wholesale when its groups change, which
	// drops the index.
	lat []latStep
}

// latStep is one entry of a bucket's latency index: a distinct patch
// latency and the summed power of the groups patching that late or later.
type latStep struct {
	latency time.Duration // distinct, ascending
	suffix  float64       // Σ members × power over groups with latency ≥ this one
}

type giGroup struct {
	power   float64
	latency time.Duration
	names   []string // ascending; shared with the producer, read-only

	mark  uint64 // == GroupInjector.markGen when touched this instant
	taken int    // longest taken prefix this instant (valid when marked)
}

// giItem is one open (vulnerability, group) exposure at the instant under
// evaluation: the group plus the vulnerability's window close for that
// group's latency.
type giItem struct {
	g       *giGroup
	closeAt time.Duration
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
}

// NewGroupInjector builds the grouped exposure index from a bucketed view
// of the membership. Bucket keys must be unique; group member names must be
// globally unique and ascending within each group (the registry snapshot
// guarantees both).
func NewGroupInjector(catalog *Catalog, buckets []BucketSpec) (*GroupInjector, error) {
	gi := new(GroupInjector)
	if err := gi.Rebuild(catalog, buckets); err != nil {
		return nil, err
	}
	return gi, nil
}

// Rebuild recomputes the whole index from (catalog, buckets), exactly as
// NewGroupInjector would, reusing only the receiver's memory: a warm Rebuild
// over an input no larger than the last one allocates nothing. On error the
// receiver is left as it was.
func (gi *GroupInjector) Rebuild(catalog *Catalog, buckets []BucketSpec) error {
	if catalog == nil {
		return errors.New("vuln: nil catalog")
	}
	vulns := catalog.allSorted()
	if gi.buckets == nil {
		gi.buckets = make(map[string]*giBucket, len(buckets))
		gi.known = make(map[ID]struct{}, len(vulns))
	}
	clear(gi.buckets)
	clear(gi.known)
	// ApplyBuckets replaces a bucket by pointing the map at a stand-alone
	// one and ApplyCatalog indexes into a stand-alone exposure, so patching
	// never touches a slab neighbour.
	nGroups := 0
	for _, bs := range buckets {
		nGroups += liveGroups(bs)
	}
	gi.bucketSlab = slices.Grow(gi.bucketSlab[:0], len(buckets))[:len(buckets)]
	gi.groupSlab = slices.Grow(gi.groupSlab[:0], nGroups)[:nGroups]
	gi.ptrSlab = slices.Grow(gi.ptrSlab[:0], nGroups)[:nGroups]
	gi.keys = gi.keys[:0]
	off := 0
	for i, bs := range buckets {
		b := &gi.bucketSlab[i]
		off += b.fill(bs, gi.groupSlab[off:], gi.ptrSlab[off:])
		gi.buckets[bs.Key] = b
		gi.keys = append(gi.keys, bs.Key)
	}
	slices.Sort(gi.keys)
	gi.keys = slices.Compact(gi.keys)
	gi.expSlab = slices.Grow(gi.expSlab[:0], len(vulns))[:len(vulns)]
	gi.exposures = gi.exposures[:0]
	for i, v := range vulns {
		gi.addVuln(&gi.expSlab[i], v)
		gi.exposures = append(gi.exposures, &gi.expSlab[i])
	}
	gi.recomputeTotal()
	gi.markGen, gi.nextBoundary = 0, 0
	gi.touched, gi.open, gi.byDisclosed = gi.touched[:0], gi.open[:0], gi.byDisclosed[:0]
	gi.sweepInstants, gi.sweepEvaluated = 0, 0
	return nil
}

// liveGroups counts the spec's non-empty groups — the ones a giBucket keeps.
func liveGroups(bs BucketSpec) int {
	n := 0
	for _, g := range bs.Groups {
		if len(g.Names) > 0 {
			n++
		}
	}
	return n
}

// newGiBucket builds one stand-alone bucket (ApplyBuckets' unit of change).
func newGiBucket(bs BucketSpec) *giBucket {
	n := liveGroups(bs)
	b := new(giBucket)
	b.fill(bs, make([]giGroup, n), make([]*giGroup, n))
	return b
}

// fill initialises b from the spec, storing its n = liveGroups(bs) groups at
// the front of groups and the power-descending pointer list over them at
// the front of ptrs, and returns n. Only the storage of b's exposure list
// survives; the list itself starts empty.
func (b *giBucket) fill(bs BucketSpec, groups []giGroup, ptrs []*giGroup) int {
	*b = giBucket{cfg: bs.Config, exps: b.exps[:0]}
	n := 0
	for _, g := range bs.Groups {
		if len(g.Names) == 0 {
			continue
		}
		groups[n] = giGroup{power: g.Power, latency: g.Latency, names: g.Names}
		ptrs[n] = &groups[n]
		n++
		if g.Latency > b.maxLatency {
			b.maxLatency = g.Latency
		}
	}
	b.groups = ptrs[:n:n]
	// Power-descending: activeAt merges these lists directly into the
	// attack-priority order walkTake consumes. Ties need no tie-break —
	// equal-power items form one class, which the take logic resolves as a
	// unit whatever their relative order.
	if n > 1 {
		slices.SortFunc(b.groups, func(x, y *giGroup) int { return cmp.Compare(y.power, x.power) })
	}
	for _, g := range b.groups {
		b.power += float64(len(g.names)) * g.power
	}
	return n
}

// latIndex returns b's latency index, building it on first use.
// Under any vulnerability the groups still open at t are those with
// latency > t − PatchAt — a suffix of this index — so one lookup gives the
// power an exposure can reach in the bucket, and the distinct latencies are
// the bucket's distinct window-close offsets. Built lazily, because most
// buckets of a short-lived injector are never swept. It is sorted and merged
// in gi's scratch, so the index the bucket keeps has exactly one entry per
// distinct latency.
func (gi *GroupInjector) latIndex(b *giBucket) []latStep {
	if b.lat != nil || len(b.groups) == 0 {
		return b.lat
	}
	lat := slices.Grow(gi.latScratch[:0], len(b.groups))
	for _, g := range b.groups {
		lat = append(lat, latStep{latency: g.latency, suffix: float64(len(g.names)) * g.power})
	}
	gi.latScratch = lat
	slices.SortFunc(lat, func(x, y latStep) int { return cmp.Compare(x.latency, y.latency) })
	n := 0
	for _, st := range lat[1:] {
		if st.latency == lat[n].latency {
			lat[n].suffix += st.suffix
		} else {
			n++
			lat[n] = st
		}
	}
	b.lat = slices.Clone(lat[:n+1])
	for i := len(b.lat) - 2; i >= 0; i-- {
		b.lat[i].suffix += b.lat[i+1].suffix
	}
	return b.lat
}

// openPower is the summed power of the bucket's groups with latency > x.
func openPower(lat []latStep, x time.Duration) float64 {
	lo, hi := 0, len(lat)
	for lo < hi {
		if mid := (lo + hi) / 2; lat[mid].latency > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(lat) {
		return 0
	}
	return lat[lo].suffix
}

// addVuln indexes one vulnerability into e, keeping only the storage of
// e's key list: match against every bucket. Exposures are kept even when
// currently empty — a later bucket change may expose them. gi.exposures
// stays ID-sorted because Rebuild feeds vulnerabilities in ID order;
// ApplyCatalog inserts at the sorted position.
func (gi *GroupInjector) addVuln(e *giExposure, v Vulnerability) {
	e.vuln, e.keys = v, e.keys[:0]
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
	e.keys = keys
}

// recomputeTotal sums the cached bucket powers in bucket-key order — never
// in map order — so two injectors over the same buckets agree on the
// denominator of every PowerFraction to the last bit. O(#buckets).
func (gi *GroupInjector) recomputeTotal() {
	var total float64
	for _, key := range gi.keys {
		total += gi.buckets[key].power
	}
	gi.totalPower = total
}

// ApplyBuckets patches the index after membership churn: changed holds the
// buckets whose group structure changed (including brand-new buckets),
// removed the keys of buckets that emptied out. Only exposures matching an
// affected bucket are touched, and each refresh is O(its matching
// buckets). Applying the same change twice is harmless (group lists are
// replaced wholesale), which lets callers retry after a partial failure
// upstream.
func (gi *GroupInjector) ApplyBuckets(changed []BucketSpec, removed []string) {
	// A patched index is long-lived and rarely rebuilt: leave the bucket
	// slabs to the buckets still carved from them, so a slab is freed with
	// its last bucket instead of pinning every replaced bucket's groups. The
	// next Rebuild allocates them afresh.
	gi.bucketSlab, gi.groupSlab, gi.ptrSlab = nil, nil, nil
	affected := make(map[*giExposure]struct{})
	for _, key := range removed {
		b := gi.buckets[key]
		if b == nil {
			continue
		}
		for _, e := range b.exps {
			affected[e] = struct{}{}
		}
		delete(gi.buckets, key)
		i := sort.SearchStrings(gi.keys, key)
		gi.keys = slices.Delete(gi.keys, i, i+1)
	}
	for _, bs := range changed {
		nb := newGiBucket(bs)
		old := gi.buckets[bs.Key]
		gi.buckets[bs.Key] = nb
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
					affected[e] = struct{}{}
				}
			}
			continue
		}
		nb.exps = old.exps
		for _, e := range nb.exps {
			affected[e] = struct{}{}
		}
	}
	for e := range affected {
		gi.refreshExposure(e)
	}
	gi.recomputeTotal()
}

// ApplyCatalog indexes any catalog vulnerabilities not yet known to the
// injector (Catalog only ever grows). Each new vulnerability is matched
// against all buckets once and inserted in ID order.
func (gi *GroupInjector) ApplyCatalog(catalog *Catalog) {
	for _, v := range catalog.allSorted() {
		if _, ok := gi.known[v.ID]; ok {
			continue
		}
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

// TotalPower returns the summed power of all members in the index.
func (gi *GroupInjector) TotalPower() float64 { return gi.totalPower }

func (gi *GroupInjector) beginInstant() {
	gi.markGen++
	gi.touched = gi.touched[:0]
	gi.nextBoundary = Never
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
// count. The single-bucket case (the common one: a vulnerability names
// one product version) is a straight filtered copy.
func (gi *GroupInjector) activeAt(e *giExposure, t time.Duration) int {
	gi.open = gi.open[:0]
	if t < e.vuln.Disclosed {
		gi.nextBoundary = min(gi.nextBoundary, e.vuln.Disclosed)
		return 0
	}
	if t >= e.maxClose {
		return 0
	}
	bs := gi.bs[:0]
	for _, key := range e.keys {
		if b := gi.buckets[key]; b != nil {
			bs = append(bs, b)
		}
	}
	gi.bs = bs[:0]
	m := 0
	if len(bs) == 1 {
		for _, g := range bs[0].groups {
			if c := e.vuln.PatchAt + g.latency; t < c {
				gi.open = append(gi.open, giItem{g: g, closeAt: c})
				gi.nextBoundary = min(gi.nextBoundary, c)
				m += len(g.names)
			}
		}
		return m
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
			if best < 0 || b.groups[pos[i]].power > bs[best].groups[pos[best]].power {
				best = i
			}
		}
		if best < 0 {
			return m
		}
		g := bs[best].groups[pos[best]]
		pos[best]++
		if c := e.vuln.PatchAt + g.latency; t < c {
			gi.open = append(gi.open, giItem{g: g, closeAt: c})
			gi.nextBoundary = min(gi.nextBoundary, c)
			m += len(g.names)
		}
	}
}

// markTake records that n members (a name-ascending prefix) of g are
// compromised this instant; the longest prefix across vulnerabilities wins.
func (gi *GroupInjector) markTake(g *giGroup, n int) {
	if g.mark != gi.markGen {
		g.mark = gi.markGen
		g.taken = 0
		gi.touched = append(gi.touched, g)
	}
	if n > g.taken {
		g.taken = n
	}
}

// walkTake applies one exposure's severity take of k members to the dedup
// marks, walking gi.open by power class, and returns the fault's power.
// Full classes are taken whole (every group's complete prefix); the class
// containing the k-th member is resolved by name-merge across its groups —
// exactly the flat injector's (power desc, name asc) selection order.
func (gi *GroupInjector) walkTake(k int) float64 {
	var power float64
	taken := 0
	open := gi.open
	for i := 0; i < len(open) && taken < k; {
		j, classCount := i, 0
		p := open[i].g.power
		for j < len(open) && open[j].g.power == p {
			classCount += len(open[j].g.names)
			j++
		}
		if taken+classCount <= k {
			for _, it := range open[i:j] {
				gi.markTake(it.g, len(it.g.names))
			}
			power += float64(classCount) * p
			taken += classCount
		} else {
			r := k - taken
			gi.resolveBoundary(open[i:j], r, nil)
			power += float64(r) * p
			taken = k
		}
		i = j
	}
	return power
}

// resolveBoundary selects the r lexicographically-smallest member names
// across the equal-power items (the boundary power class), marks the
// per-group prefix lengths, and — when out is non-nil — appends the
// selected names in ascending order. The single-group case (the common
// one: boundary classes usually live inside one group) is O(1) when no
// names are requested.
func (gi *GroupInjector) resolveBoundary(items []giItem, r int, out *[]string) {
	if len(items) == 1 && out == nil {
		gi.markTake(items[0].g, r)
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
			if pos[i] >= len(items[i].g.names) {
				continue
			}
			if best < 0 || items[i].g.names[pos[i]] < items[best].g.names[pos[best]] {
				best = i
			}
		}
		if out != nil {
			*out = append(*out, items[best].g.names[pos[best]])
		}
		pos[best]++
	}
	for i, it := range items {
		if pos[i] > 0 {
			gi.markTake(it.g, pos[i])
		}
	}
}

// dedupFraction sums the marked prefixes — the deduplicated compromised
// power of the current instant — as a fraction of total power.
func (gi *GroupInjector) dedupFraction() float64 {
	if gi.totalPower == 0 {
		return 0
	}
	var dedup float64
	for _, g := range gi.touched {
		dedup += float64(g.taken) * g.power
	}
	return dedup / gi.totalPower
}

// TotalFractionAt computes only the deduplicated compromised power fraction
// at t — the quantity WorstWindow maximises — in O(open groups), without
// materialising fault lists and without allocating after the first call.
func (gi *GroupInjector) TotalFractionAt(t time.Duration) float64 {
	if gi.totalPower == 0 {
		return 0
	}
	gi.beginInstant()
	for _, e := range gi.exposures {
		m := gi.activeAt(e, t)
		if m == 0 {
			continue
		}
		gi.walkTake(SeverityTake(m, e.vuln.Severity))
	}
	return gi.dedupFraction()
}

// Inject computes the full fault picture at instant t, byte-equivalent to
// the flat Injector's: per-vulnerability compromised names in (power desc,
// name asc) order, power sums, and the deduplicated total.
func (gi *GroupInjector) Inject(t time.Duration) Injection {
	return gi.inject(t, true)
}

// InjectSummary is Inject without materialising compromised-name lists:
// each Fault carries its power and fraction but a nil Compromised. At large
// scale (hundreds of thousands of exposed members per vulnerability) this
// is the difference between O(groups) and O(population) per assessment.
func (gi *GroupInjector) InjectSummary(t time.Duration) Injection {
	return gi.inject(t, false)
}

func (gi *GroupInjector) inject(t time.Duration, names bool) Injection {
	inj := Injection{At: t}
	gi.beginInstant()
	for _, e := range gi.exposures {
		m := gi.activeAt(e, t)
		if m == 0 {
			continue
		}
		k := SeverityTake(m, e.vuln.Severity)
		fault := Fault{Vuln: e.vuln.ID}
		if names {
			fault.Compromised = make([]string, 0, k)
			fault.Power = gi.materialize(k, &fault.Compromised)
		} else {
			fault.Power = gi.walkTake(k)
		}
		if gi.totalPower > 0 {
			fault.PowerFraction = fault.Power / gi.totalPower
		}
		inj.Faults = append(inj.Faults, fault)
		inj.SumFraction += fault.PowerFraction
	}
	inj.TotalFraction = gi.dedupFraction()
	return inj
}

// materialize is walkTake with name output: every class — full or boundary
// — is emitted as a name-ascending merge of its groups' taken prefixes,
// reproducing the flat injector's (power desc, name asc) listing.
func (gi *GroupInjector) materialize(k int, out *[]string) float64 {
	var power float64
	taken := 0
	open := gi.open
	for i := 0; i < len(open) && taken < k; {
		j, classCount := i, 0
		p := open[i].g.power
		for j < len(open) && open[j].g.power == p {
			classCount += len(open[j].g.names)
			j++
		}
		r := classCount
		if taken+classCount > k {
			r = k - taken
		}
		gi.resolveBoundary(open[i:j], r, out)
		power += float64(r) * p
		taken += r
		i = j
	}
	return power
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
	return gi.sweepInstants, gi.sweepEvaluated
}

// boundSlack is the relative slack the pruning test grants the bound; see
// worstWindow for what it has to cover.
const boundSlack = 1e-9

// sweepBounds fills gi.bound with an upper bound on the deduplicated
// compromised power at each instant. Inside a bucket the groups open at t
// under a vulnerability are those with latency > t − PatchAt, so the open
// sets of all disclosed vulnerabilities matching the bucket are nested and
// their union is the one with the latest PatchAt; whatever the severities
// take lies inside that union. Summing its power over the buckets bounds
// the numerator of the fraction from above, and equals it when every
// severity is 1. Only non-negative terms are added, in bucket-key order.
func (gi *GroupInjector) sweepBounds(instants []time.Duration) []float64 {
	if cap(gi.bound) < len(instants) {
		gi.bound = make([]float64, len(instants))
	}
	bound := gi.bound[:len(instants)]
	clear(bound)
	for _, key := range gi.keys {
		b := gi.buckets[key]
		if b.power == 0 || len(b.exps) == 0 {
			continue
		}
		exps := append(gi.byDisclosed[:0], b.exps...)
		gi.byDisclosed = exps[:0]
		slices.SortFunc(exps, func(x, y *giExposure) int { return cmp.Compare(x.vuln.Disclosed, y.vuln.Disclosed) })
		lat := gi.latIndex(b)
		// Walk the instants from the first disclosure on, tracking the
		// latest PatchAt among the vulnerabilities disclosed so far. While
		// nothing is open, jump straight to the next disclosure (itself a
		// critical instant whenever it lies in the horizon).
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
			bound[i] += openPower(lat, t-patch)
			i++
		}
	}
	return bound
}

func (gi *GroupInjector) worstWindow(horizon time.Duration, names bool) (Injection, error) {
	if horizon < 0 {
		return Injection{}, errors.New("vuln: negative horizon " + horizon.String())
	}
	gi.sweepInstants, gi.sweepEvaluated = 0, 0
	if gi.totalPower == 0 {
		return Injection{}, nil
	}
	gi.instants = gi.criticalInstants(horizon, gi.instants)
	instants := gi.instants
	bound := gi.sweepBounds(instants)

	// Bound-and-prune. Seed the search at the instant with the largest
	// bound, then walk the instants evaluating the exact fraction only
	// where the bound can still reach the best found. Why the result is the
	// flat sweep's, bit for bit:
	//
	//   - A skipped instant has bound(t)·(1+boundSlack) < best·total. The
	//     exact numerator at t sums a subset of what bound(t) sums, so in
	//     real arithmetic it is ≤ bound(t); hence f(t) < best strictly, t is
	//     not a maximiser, and the earliest maximiser is never skipped.
	//   - Every comparison that decides bestT is between two exact
	//     TotalFractionAt values, with ties going to the earlier instant —
	//     the flat sweep's "first strict improvement in time order".
	//
	// boundSlack covers float rounding only: bound and numerator add
	// non-negative terms in different orders, so each sum is off by at most
	// about (#groups)·2⁻⁵³ relative — 1.1e-10 even if every one of the
	// scale ladder's 1M replicas were its own group — and best·total adds
	// two more roundings: the two sides drift apart by under 2.3e-10 <
	// 1e-9. Do not replace the exact evaluations by running float sums:
	// near-ties would then pick a different instant than the flat oracle.
	seed := 0
	for i, v := range bound {
		if v > bound[seed] {
			seed = i
		}
	}
	bestT, bestF := instants[seed], gi.TotalFractionAt(instants[seed])
	evaluated := 1
	for i, t := range instants {
		if i == seed || bound[i]*(1+boundSlack) < bestF*gi.totalPower {
			continue
		}
		evaluated++
		if f := gi.TotalFractionAt(t); f > bestF || (f == bestF && t < bestT) {
			bestT, bestF = t, f
		}
	}
	gi.sweepInstants, gi.sweepEvaluated = len(instants), evaluated
	if bestF == 0 {
		// Match Injector.WorstWindow: no instant compromises anything, so
		// report the zero injection rather than a fault-free picture at 0.
		return Injection{}, nil
	}
	return gi.inject(bestT, names), nil
}
