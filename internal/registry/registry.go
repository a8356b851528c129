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
	"cmp"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/config"
	"repro/internal/vuln"
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

// Record is one live replica, as Get and Records report it. It is a view
// built per call: the registry stores a replica as a pointer to its
// equivalence group, and keeps the vote key of an attested replica aside.
// Power is the stored units converted back (vuln.UnitsPower).
type Record struct {
	ID           ReplicaID
	Config       config.Configuration
	Power        float64
	Tier         Tier
	VoteKey      ed25519.PublicKey
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

// weigh returns the weighted units of one member of a group holding u raw
// units in tier t.
func (w Weighting) weigh(u uint64, t Tier) (uint64, error) {
	if t == TierAttested {
		return vuln.WeighUnits(u, w.Attested)
	}
	return vuln.WeighUnits(u, w.Declared)
}

// group is one equivalence class within a bucket: members sharing (power
// units, tier, patch latency). Its vuln.GroupSpec holds the raw units, the
// latency and the member names, ascending; a snapshot under a weighting
// that leaves the units as they are exports that very GroupSpec. A
// replica's power, tier, latency and configuration are read from its group
// and the group's bucket, and stored nowhere else. The group names its
// bucket by a 4-byte slot rather than a pointer, which keeps it at 48 bytes:
// in a fleet of one-member groups every byte of a group is a byte of a
// replica.
type group struct {
	vuln.GroupSpec
	tier Tier

	// frozen marks a group exported into a snapshot and hence immutable: a
	// mutation replaces it (replaceGroup) instead of editing it, so
	// sustained churn on an unexported group edits in place. Set under the
	// registry read lock serialized by snapMu; read under the write lock —
	// never raced.
	frozen bool
	slot   uint32 // the bucket holding the group: Registry.slots[slot]
}

// cmp orders groups by (units, tier, latency) ascending; 0 means same group.
func (g *group) cmp(units uint64, tier Tier, latency time.Duration) int {
	switch {
	case g.Units != units:
		if g.Units < units {
			return -1
		}
		return 1
	case g.tier != tier:
		if g.tier < tier {
			return -1
		}
		return 1
	case g.Latency != latency:
		if g.Latency < latency {
			return -1
		}
		return 1
	}
	return 0
}

// bucket holds every replica sharing one configuration digest. The
// configuration is immutable for the bucket's lifetime (the key is its
// digest), which is what lets downstream vulnerability indexes compute a
// bucket's matching set once.
type bucket struct {
	label  string // digest string, the diversity label
	cfg    config.Configuration
	count  int
	groups []*group // (units, tier, latency) ascending
	slot   uint32   // the bucket's index in Registry.slots
	// nextFree links an emptied bucket into the registry's free list: 1 +
	// the next free slot, 0 at the end.
	nextFree uint32
}

// groupFor returns the bucket's group for the key, creating it in sorted
// position when absent.
func (b *bucket) groupFor(units uint64, tier Tier, latency time.Duration) *group {
	i := sort.Search(len(b.groups), func(i int) bool {
		return b.groups[i].cmp(units, tier, latency) >= 0
	})
	if i < len(b.groups) && b.groups[i].cmp(units, tier, latency) == 0 {
		return b.groups[i]
	}
	g := &group{GroupSpec: vuln.GroupSpec{Units: units, Latency: latency}, tier: tier, slot: b.slot}
	b.groups = slices.Insert(b.groups, i, g)
	return g
}

// dropGroup removes an emptied group.
func (b *bucket) dropGroup(g *group) {
	if i := slices.Index(b.groups, g); i >= 0 {
		b.groups = slices.Delete(b.groups, i, i+1)
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
	// mu guards records, voteKeys, buckets, slots, the aggregates and
	// gen. Mutators take the write lock; readers (Get, Records,
	// TierCounts, Snapshot construction) the read lock, so a snapshot can
	// never observe a half-applied mutation.
	mu        sync.RWMutex
	authority *attest.Authority
	records   map[ReplicaID]*group            // a replica's entry is its group
	voteKeys  map[ReplicaID]ed25519.PublicKey // attested replicas only

	buckets  map[config.ID]*bucket
	attested int // replicas per tier, maintained incrementally
	declared int
	units    uint64 // summed raw power units, at most vuln.MaxPowerUnits

	// slots holds every bucket at the slot its groups name. An emptied
	// bucket stays in its slot, cleared, and heads the free list (freeSlot
	// is 1 + its slot, 0 when no slot is free); the next new bucket reuses
	// it. A mutation that leaves a group must read the group's bucket
	// before bucketRemove, which may clear it or, by the next bucketAdd,
	// hand it to another configuration.
	slots    []*bucket
	freeSlot uint32

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
// used.
func New(authority *attest.Authority) *Registry {
	return &Registry{
		authority: authority,
		records:   make(map[ReplicaID]*group),
		voteKeys:  make(map[ReplicaID]ed25519.PublicKey),
		buckets:   make(map[config.ID]*bucket),
		snaps:     make(map[Weighting]*cachedSnap),
	}
}

// JoinDeclared admits a replica on its own word about its configuration.
func (r *Registry) JoinDeclared(id ReplicaID, cfg config.Configuration, power float64, patchLatency time.Duration) error {
	return r.join(Record{
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
	return r.join(Record{
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
	return r.join(Record{
		ID: id, Config: cfg, Power: power, Tier: TierAttested,
		VoteKey: q.VotePublicKey, PatchLatency: patchLatency,
	})
}

// join admits rec. The power arguments of the Join* methods and SetPower
// are converted once, by vuln.PowerUnits, to integer units of 1e-9 (a power
// with at most nine decimals is exact), and the registry stores only the
// units. A negative or non-finite power, a positive one that rounds to 0
// units, and one that would take the summed power past vuln.MaxPowerUnits
// (≈ 6.1e9) are refused before anything changes, so no sum over the
// membership can overflow.
func (r *Registry) join(rec Record) error {
	if rec.ID == "" {
		return errors.New("registry: empty replica id")
	}
	u, err := vuln.PowerUnits(rec.Power)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.records[rec.ID]; exists {
		return fmt.Errorf("%w: %s", ErrDuplicateReplica, rec.ID)
	}
	if err := r.reserve(0, u, rec.Power); err != nil {
		return err
	}
	r.records[rec.ID] = r.bucketAdd(string(rec.ID), rec.Config, u, rec.Tier, rec.PatchLatency)
	if rec.Tier == TierAttested {
		r.voteKeys[rec.ID] = rec.VoteKey
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
	g, ok := r.records[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownReplica, id)
	}
	key := r.slots[g.slot].cfg.Digest()
	r.bucketRemove(g, id)
	r.units -= g.Units
	if g.tier == TierAttested {
		delete(r.voteKeys, id)
		r.attested--
	} else {
		r.declared--
	}
	delete(r.records, id)
	r.bumpGen(key)
	return nil
}

// SetPower updates a replica's raw voting power (hash-rate drift, stake
// movement). Only the replica's own equivalence groups are touched.
func (r *Registry) SetPower(id ReplicaID, p float64) error {
	u, err := vuln.PowerUnits(p)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.records[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownReplica, id)
	}
	if err := r.reserve(g.Units, u, p); err != nil {
		return err
	}
	cfg := r.slots[g.slot].cfg
	name := r.bucketRemove(g, id)
	r.records[ReplicaID(name)] = r.bucketAdd(name, cfg, u, g.tier, g.Latency)
	r.bumpGen(cfg.Digest())
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
	g, ok := r.records[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownReplica, id)
	}
	old := r.slots[g.slot].cfg
	name := r.bucketRemove(g, id)
	if g.tier == TierAttested {
		delete(r.voteKeys, id)
		r.attested--
		r.declared++
	}
	r.records[ReplicaID(name)] = r.bucketAdd(name, cfg, g.Units, TierDeclared, g.Latency)
	r.bumpGen(old.Digest(), cfg.Digest())
	return nil
}

// reserve replaces old of the summed units by u, refusing a total past
// vuln.MaxPowerUnits. p is the power u was converted from, for the error.
// r.mu must be held for writing.
func (r *Registry) reserve(old, u uint64, p float64) error {
	total, ok := vuln.AddUnits(r.units-old, 1, u)
	if !ok {
		return fmt.Errorf("registry: invalid power %v: the summed power would pass the ceiling of %d units of 1e-9", p, uint64(vuln.MaxPowerUnits))
	}
	r.units = total
	return nil
}

// bucketAdd places the named replica in its configuration bucket, creating
// bucket and group as needed, and returns its group; the caller points the
// replica's entry at it. The bucket keeps the configuration it was created
// with: the digest is the bucket key, so every replica of a bucket shares
// one value. r.mu must be held for writing.
func (r *Registry) bucketAdd(name string, cfg config.Configuration, units uint64, tier Tier, latency time.Duration) *group {
	digest := cfg.Digest()
	b := r.buckets[digest]
	if b == nil {
		if r.freeSlot > 0 {
			b = r.slots[r.freeSlot-1]
			r.freeSlot, b.nextFree = b.nextFree, 0
		} else {
			b = &bucket{slot: uint32(len(r.slots))}
			r.slots = append(r.slots, b)
		}
		b.label, b.cfg = digest.String(), cfg
		r.buckets[digest] = b
	}
	g := b.groupFor(units, tier, latency)
	i := sort.SearchStrings(g.Names, name)
	if g.frozen {
		g = r.replaceGroup(g, slices.Concat(g.Names[:i], []string{name}, g.Names[i:]))
	} else {
		g.Names = slices.Insert(g.Names, i, name)
	}
	b.count++
	return g
}

// bucketRemove takes the replica out of its group g, dropping emptied
// groups and buckets (an emptied bucket is cleared and freed for reuse),
// and returns the group's copy of its name: the string the replica joined
// with. A mutation writes the replica's entry back under that copy, never
// the caller's, because assigning to an existing key stores the assigned
// key's string and a caller's ID may be a slice of a far larger string.
// r.mu must be held for writing.
func (r *Registry) bucketRemove(g *group, id ReplicaID) string {
	i := sort.SearchStrings(g.Names, string(id))
	name := g.Names[i]
	b := r.slots[g.slot]
	switch {
	case len(g.Names) == 1:
		b.dropGroup(g)
	case g.frozen:
		r.replaceGroup(g, slices.Concat(g.Names[:i], g.Names[i+1:]))
	default:
		g.Names = slices.Delete(g.Names, i, i+1)
	}
	b.count--
	if b.count == 0 {
		delete(r.buckets, b.cfg.Digest())
		b.label, b.cfg, b.nextFree = "", config.Configuration{}, r.freeSlot
		r.freeSlot = b.slot + 1
	}
	return name
}

// replaceGroup puts a copy of the frozen group g, holding names, in g's
// place in its bucket and points the entries of names at it, so a snapshot
// keeps g as it was. names must not share storage with g's. O(|names|), as
// copying the names is. r.mu must be held for writing.
func (r *Registry) replaceGroup(g *group, names []string) *group {
	ng := &group{GroupSpec: vuln.GroupSpec{Units: g.Units, Latency: g.Latency, Names: names}, tier: g.tier, slot: g.slot}
	b := r.slots[g.slot]
	b.groups[slices.Index(b.groups, g)] = ng
	for _, name := range names {
		r.records[ReplicaID(name)] = ng
	}
	return ng
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

// record builds the view of one replica. r.mu must be held.
func (r *Registry) record(id ReplicaID, g *group) Record {
	return Record{
		ID:           id,
		Config:       r.slots[g.slot].cfg,
		Power:        vuln.UnitsPower(g.Units),
		Tier:         g.tier,
		VoteKey:      r.voteKeys[id],
		PatchLatency: g.Latency,
	}
}

// Get returns a replica's record.
func (r *Registry) Get(id ReplicaID) (Record, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.records[id]
	if !ok {
		return Record{}, false
	}
	return r.record(id, g), true
}

// Size reports the number of live replicas.
func (r *Registry) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.records)
}

// Records returns every replica's record sorted by ID. The registry keeps
// no ID order, so each call sorts: O(N log N). Hot paths read a Snapshot.
func (r *Registry) Records() []Record {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Record, 0, len(r.records))
	for id, g := range r.records {
		out = append(out, r.record(id, g))
	}
	slices.SortFunc(out, func(a, b Record) int { return cmp.Compare(a.ID, b.ID) })
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
// equivalence groups (O(#groups), not O(#replicas)) in integer units.
func (r *Registry) TierCounts() (attested, declared int, attestedPower, declaredPower float64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var att uint64
	for _, b := range r.buckets {
		for _, g := range b.groups {
			if g.tier == TierAttested {
				att += uint64(len(g.Names)) * g.Units
			}
		}
	}
	return r.attested, r.declared, vuln.UnitsPower(att), vuln.UnitsPower(r.units - att)
}
