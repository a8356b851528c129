// Package registry implements permissionless replica membership with
// configuration discovery (the paper's Challenge 1). Replicas join and
// leave at any time; each join either carries a verified attestation quote
// (trusted-hardware tier) or a self-declared configuration (untrusted
// tier). The registry maintains the live configuration distribution that
// internal/diversity measures and internal/core polices, and exposes the
// paper's concluding two-tier idea: attested and non-attested replicas can
// carry different voting weights.
//
// Storage is bucketed for scale: replicas live in buckets keyed by their
// configuration digest, and within a bucket in equivalence groups of equal
// (power, tier, patch latency). Every mutation touches only its own
// bucket(s) in O(log) time, aggregates (tier counts, per-bucket power) are
// maintained incrementally, and snapshots are built by delta against the
// previous snapshot — churn cost tracks the change, not the population.
package registry

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/config"
)

// Errors returned by registry operations.
var (
	ErrDuplicateReplica = errors.New("registry: replica already joined")
	ErrUnknownReplica   = errors.New("registry: unknown replica")
	ErrMeasurement      = errors.New("registry: quote measurement does not match declared configuration")
)

// ReplicaID names a replica.
type ReplicaID string

// Tier distinguishes attested from self-declared membership.
type Tier uint8

// Membership tiers (paper's conclusion: "two types of replicas ... one
// supporting configuration attestation and one does not").
const (
	TierDeclared Tier = iota // configuration self-declared, unverified
	TierAttested             // configuration proven by a verified quote
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierDeclared:
		return "declared"
	case TierAttested:
		return "attested"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// Record is one live replica.
type Record struct {
	ID           ReplicaID
	Config       config.Configuration
	Power        float64
	Tier         Tier
	VoteKey      ed25519.PublicKey
	JoinedAt     time.Duration
	PatchLatency time.Duration
}

// Weighting assigns per-tier voting-weight multipliers, the paper's
// "different voting right/weight" for the two replica types.
type Weighting struct {
	Attested float64
	Declared float64
}

// DefaultWeighting counts every replica's power at face value.
var DefaultWeighting = Weighting{Attested: 1, Declared: 1}

// Validate checks the multipliers are usable.
func (w Weighting) Validate() error {
	for _, v := range []float64{w.Attested, w.Declared} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("registry: invalid weighting %+v", w)
		}
	}
	if w.Attested == 0 && w.Declared == 0 {
		return fmt.Errorf("registry: weighting zeroes out all power")
	}
	return nil
}

// tierMultiplier returns the weight multiplier for a tier.
func (w Weighting) tierMultiplier(t Tier) float64 {
	if t == TierAttested {
		return w.Attested
	}
	return w.Declared
}

// group is one equivalence class within a bucket: members sharing (power,
// tier, patch latency). Member names are kept ascending; the slice is
// shared with exported snapshots via copy-on-write — a mutation copies it
// only if a snapshot marked it shared since the last copy, so sustained
// churn on an unexported group mutates in place.
type group struct {
	power   float64
	tier    Tier
	latency time.Duration
	names   []string // ascending replica IDs

	// shared marks the names slice as exported into a snapshot and hence
	// immutable. Set under the registry read lock serialized by snapMu;
	// read and cleared under the write lock — never raced.
	shared bool
}

// cmp orders groups by (power, tier, latency) ascending; 0 means same group.
func (g *group) cmp(power float64, tier Tier, latency time.Duration) int {
	switch {
	case g.power != power:
		if g.power < power {
			return -1
		}
		return 1
	case g.tier != tier:
		if g.tier < tier {
			return -1
		}
		return 1
	case g.latency != latency:
		if g.latency < latency {
			return -1
		}
		return 1
	}
	return 0
}

// insert adds a name keeping ascending order, copying first when the slice
// is shared with a snapshot.
func (g *group) insert(name string) {
	i := sort.SearchStrings(g.names, name)
	if g.shared {
		ns := make([]string, len(g.names)+1)
		copy(ns, g.names[:i])
		ns[i] = name
		copy(ns[i+1:], g.names[i:])
		g.names = ns
		g.shared = false
		return
	}
	g.names = append(g.names, "")
	copy(g.names[i+1:], g.names[i:])
	g.names[i] = name
}

// remove deletes a name, copying first when the slice is shared.
func (g *group) remove(name string) {
	i := sort.SearchStrings(g.names, name)
	if g.shared {
		ns := make([]string, len(g.names)-1)
		copy(ns, g.names[:i])
		copy(ns[i:], g.names[i+1:])
		g.names = ns
		g.shared = false
		return
	}
	copy(g.names[i:], g.names[i+1:])
	g.names = g.names[:len(g.names)-1]
}

// bucket holds every replica sharing one configuration digest. The
// configuration is immutable for the bucket's lifetime (the key is its
// digest), which is what lets downstream vulnerability indexes compute a
// bucket's matching set once.
type bucket struct {
	label  string // digest string, the diversity label
	cfg    config.Configuration
	count  int
	groups []*group // (power, tier, latency) ascending
}

// groupFor returns the bucket's group for the key, creating it in sorted
// position when absent.
func (b *bucket) groupFor(power float64, tier Tier, latency time.Duration) *group {
	i := sort.Search(len(b.groups), func(i int) bool {
		return b.groups[i].cmp(power, tier, latency) >= 0
	})
	if i < len(b.groups) && b.groups[i].cmp(power, tier, latency) == 0 {
		return b.groups[i]
	}
	g := &group{power: power, tier: tier, latency: latency}
	b.groups = append(b.groups, nil)
	copy(b.groups[i+1:], b.groups[i:])
	b.groups[i] = g
	return g
}

// dropGroup removes an emptied group.
func (b *bucket) dropGroup(g *group) {
	for i, cand := range b.groups {
		if cand == g {
			copy(b.groups[i:], b.groups[i+1:])
			b.groups = b.groups[:len(b.groups)-1]
			return
		}
	}
}

// Registry tracks live replicas. Mutation (Join*/Leave/SetPower/Migrate)
// and reads are synchronized internally: churn may race snapshot readers
// (Monitor.Assess, a live Watch stream), and every reader observes either
// the pre- or the post-mutation membership, never a torn one. The
// scenario engine (internal/scenario) additionally serializes mutation
// and assessment on one scheduler, which is what makes its runs
// replayable; synchronization here is what makes them safe.
type Registry struct {
	// mu guards records, order, buckets, the aggregates, epoch and gen.
	// Mutators take the write lock; readers (Get, Records, TierCounts,
	// Snapshot construction) the read lock, so a snapshot can never
	// observe a half-applied mutation.
	mu        sync.RWMutex
	authority *attest.Authority
	records   map[ReplicaID]*Record
	order     []ReplicaID // ascending; maintained incrementally per mutation
	epoch     uint64
	now       func() time.Duration

	buckets  map[config.ID]*bucket
	attested int // replicas per tier, maintained incrementally
	declared int

	// gen counts mutations.
	gen uint64

	// snaps holds the last snapshot built under each weighting and the keys
	// of the buckets mutated since. Snapshot writes it, and clears a dirty
	// set once it has re-exported those buckets, under mu.RLock plus snapMu;
	// bumpGen adds keys to every dirty set under mu.Lock. The RWMutex orders
	// the two: a writer excludes every reader, and snapMu serializes the
	// readers among themselves.
	snapMu sync.Mutex
	snaps  map[Weighting]*cachedSnap
}

// cachedSnap is a weighting's last snapshot and the buckets mutated since.
// A dirty set holds each touched bucket key once, however many mutations
// went unread.
type cachedSnap struct {
	snap  *Snapshot
	dirty map[config.ID]struct{}
}

// New creates a registry. authority may be nil when only declared joins are
// used; now supplies the virtual clock (nil means a constant zero clock).
func New(authority *attest.Authority, now func() time.Duration) *Registry {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Registry{
		authority: authority,
		records:   make(map[ReplicaID]*Record),
		buckets:   make(map[config.ID]*bucket),
		snaps:     make(map[Weighting]*cachedSnap),
		now:       now,
	}
}

// JoinDeclared admits a replica on its own word about its configuration.
func (r *Registry) JoinDeclared(id ReplicaID, cfg config.Configuration, power float64, patchLatency time.Duration) error {
	return r.join(&Record{
		ID: id, Config: cfg, Power: power, Tier: TierDeclared,
		PatchLatency: patchLatency,
	})
}

// JoinAttested admits a replica whose configuration is proven by quote:
// the quote must verify against the registry's authority and its
// measurement must equal cfg.Digest() (plain mode) — the configuration the
// replica claims is the one the trusted hardware measured. The quote's vote
// key is recorded for vote binding (Remark 3).
func (r *Registry) JoinAttested(id ReplicaID, cfg config.Configuration, q attest.Quote, power float64, patchLatency time.Duration) error {
	if r.authority == nil {
		return errors.New("registry: no attestation authority configured")
	}
	if err := r.authority.Verify(q); err != nil {
		return fmt.Errorf("registry: quote verification: %w", err)
	}
	if q.Committed {
		return errors.New("registry: committed quotes need JoinAttestedCommitted")
	}
	if q.Measurement != cfg.Digest() {
		return ErrMeasurement
	}
	return r.join(&Record{
		ID: id, Config: cfg, Power: power, Tier: TierAttested,
		VoteKey: q.VotePublicKey, PatchLatency: patchLatency,
	})
}

// JoinAttestedCommitted admits a replica using a privacy-preserving
// committed quote plus an opening (cfg, salt) shown to the registry acting
// as auditor. The public record still stores the real configuration —
// the registry is the trusted auditor here; a production system would store
// only the commitment and aggregate diversity through a private-set
// protocol.
func (r *Registry) JoinAttestedCommitted(id ReplicaID, cfg config.Configuration, salt []byte, q attest.Quote, power float64, patchLatency time.Duration) error {
	if r.authority == nil {
		return errors.New("registry: no attestation authority configured")
	}
	if err := r.authority.Verify(q); err != nil {
		return fmt.Errorf("registry: quote verification: %w", err)
	}
	if err := attest.VerifyOpening(q, cfg, salt); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return r.join(&Record{
		ID: id, Config: cfg, Power: power, Tier: TierAttested,
		VoteKey: q.VotePublicKey, PatchLatency: patchLatency,
	})
}

func (r *Registry) join(rec *Record) error {
	if rec.ID == "" {
		return errors.New("registry: empty replica id")
	}
	if rec.Power < 0 || math.IsNaN(rec.Power) || math.IsInf(rec.Power, 0) {
		return fmt.Errorf("registry: invalid power %v", rec.Power)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.records[rec.ID]; exists {
		return fmt.Errorf("%w: %s", ErrDuplicateReplica, rec.ID)
	}
	rec.JoinedAt = r.now()
	r.records[rec.ID] = rec
	r.orderInsert(rec.ID)
	r.bucketAdd(rec)
	if rec.Tier == TierAttested {
		r.attested++
	} else {
		r.declared++
	}
	r.bumpGen(rec.Config.Digest())
	return nil
}

// Leave removes a replica.
func (r *Registry) Leave(id ReplicaID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.records[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownReplica, id)
	}
	r.bucketRemove(rec)
	r.orderRemove(id)
	if rec.Tier == TierAttested {
		r.attested--
	} else {
		r.declared--
	}
	delete(r.records, id)
	r.bumpGen(rec.Config.Digest())
	return nil
}

// SetPower updates a replica's raw voting power (hash-rate drift, stake
// movement). Only the replica's own equivalence groups are touched.
func (r *Registry) SetPower(id ReplicaID, power float64) error {
	if power < 0 || math.IsNaN(power) || math.IsInf(power, 0) {
		return fmt.Errorf("registry: invalid power %v", power)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.records[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownReplica, id)
	}
	r.bucketRemove(rec)
	rec.Power = power
	r.bucketAdd(rec)
	r.bumpGen(rec.Config.Digest())
	return nil
}

// Migrate replaces a replica's configuration in place — a product or
// version migration (OS upgrade, client switch, patched build rollout)
// without the replica leaving the membership. The new configuration is
// self-declared: an attested replica drops to the declared tier until it
// re-joins with a fresh quote covering the new stack, mirroring how a
// real upgrade invalidates the previous measurement.
func (r *Registry) Migrate(id ReplicaID, cfg config.Configuration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.records[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownReplica, id)
	}
	oldKey := rec.Config.Digest()
	r.bucketRemove(rec)
	if rec.Tier == TierAttested {
		r.attested--
		r.declared++
	}
	rec.Config = cfg
	rec.Tier = TierDeclared
	rec.VoteKey = nil
	r.bucketAdd(rec)
	r.bumpGen(oldKey, cfg.Digest())
	return nil
}

// bucketAdd places rec in its configuration bucket, creating bucket and
// group as needed, and points rec at the bucket's configuration: the digest
// is the bucket key, so the two are equal, and every replica of a bucket
// shares one value. r.mu must be held for writing.
func (r *Registry) bucketAdd(rec *Record) {
	digest := rec.Config.Digest()
	b := r.buckets[digest]
	if b == nil {
		b = &bucket{label: digest.String(), cfg: rec.Config}
		r.buckets[digest] = b
	}
	rec.Config = b.cfg
	b.groupFor(rec.Power, rec.Tier, rec.PatchLatency).insert(string(rec.ID))
	b.count++
}

// bucketRemove takes rec out of its bucket, dropping emptied groups and
// buckets. r.mu must be held for writing.
func (r *Registry) bucketRemove(rec *Record) {
	digest := rec.Config.Digest()
	b := r.buckets[digest]
	g := b.groupFor(rec.Power, rec.Tier, rec.PatchLatency)
	g.remove(string(rec.ID))
	if len(g.names) == 0 {
		b.dropGroup(g)
	}
	b.count--
	if b.count == 0 {
		delete(r.buckets, digest)
	}
}

// bumpGen advances the mutation generation and marks the touched buckets
// dirty for every cached weighting. r.mu must be held for writing.
func (r *Registry) bumpGen(keys ...config.ID) {
	r.gen++
	for _, c := range r.snaps {
		for _, k := range keys {
			c.dirty[k] = struct{}{}
		}
	}
}

// orderInsert keeps r.order ascending; appends (the common monotonic-ID
// join pattern) are O(1).
func (r *Registry) orderInsert(id ReplicaID) {
	n := len(r.order)
	if n == 0 || r.order[n-1] < id {
		r.order = append(r.order, id)
		return
	}
	i := sort.Search(n, func(i int) bool { return r.order[i] >= id })
	r.order = append(r.order, "")
	copy(r.order[i+1:], r.order[i:])
	r.order[i] = id
}

func (r *Registry) orderRemove(id ReplicaID) {
	i := sort.Search(len(r.order), func(i int) bool { return r.order[i] >= id })
	copy(r.order[i:], r.order[i+1:])
	r.order = r.order[:len(r.order)-1]
}

// Get returns a copy of a replica's record.
func (r *Registry) Get(id ReplicaID) (Record, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.records[id]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// Size reports the number of live replicas.
func (r *Registry) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.records)
}

// Epoch returns the current epoch counter.
func (r *Registry) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// AdvanceEpoch bumps the epoch counter; snapshots are taken per epoch by
// callers that want history.
func (r *Registry) AdvanceEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch++
	return r.epoch
}

// Records returns copies of all records sorted by ID. The order is
// maintained incrementally by mutations, so this is one allocation and a
// linear copy — no per-call sort.
func (r *Registry) Records() []Record {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Record, len(r.order))
	for i, id := range r.order {
		out[i] = *r.records[id]
	}
	return out
}

// Generation returns the mutation counter; it advances on every
// Join*/Leave/SetPower/Migrate and keys snapshot invalidation.
func (r *Registry) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// TierCounts reports how many replicas sit in each tier and the raw power
// they hold. Counts are maintained incrementally; power sums run over the
// equivalence groups (O(#groups), not O(#replicas)).
func (r *Registry) TierCounts() (attested, declared int, attestedPower, declaredPower float64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	attested, declared = r.attested, r.declared
	for _, b := range r.buckets {
		for _, g := range b.groups {
			pw := float64(len(g.names)) * g.power
			if g.tier == TierAttested {
				attestedPower += pw
			} else {
				declaredPower += pw
			}
		}
	}
	return attested, declared, attestedPower, declaredPower
}
