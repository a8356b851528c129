package registry

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/diversity"
	"repro/internal/vuln"
)

// TestMigrate covers the product-version migration mutation: the config
// changes in place, an attested replica is demoted to the declared tier
// (its old quote no longer covers the new stack), and the mutation
// invalidates cached snapshots like any other churn.
func TestMigrate(t *testing.T) {
	auth := attest.NewAuthority("tpm2")
	r := New(auth)
	attestedJoin(t, r, auth, "a", "debian", 10)
	if err := r.JoinDeclared("b", testCfg("fedora"), 10, 0); err != nil {
		t.Fatal(err)
	}
	before, err := r.Snapshot(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	gen := r.Generation()

	if err := r.Migrate("a", testCfg("openbsd")); err != nil {
		t.Fatal(err)
	}
	rec, ok := r.Get("a")
	if !ok {
		t.Fatal("migrated replica vanished")
	}
	if !rec.Config.Equal(testCfg("openbsd")) {
		t.Errorf("config after migrate: %v", rec.Config)
	}
	if rec.Tier != TierDeclared || rec.VoteKey != nil {
		t.Errorf("attested replica not demoted on migrate: tier=%v votekey=%v", rec.Tier, rec.VoteKey)
	}
	if r.Generation() != gen+1 {
		t.Errorf("generation %d after migrate, want %d", r.Generation(), gen+1)
	}
	after, err := r.Snapshot(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Error("snapshot not invalidated by Migrate")
	}
	if err := r.Migrate("ghost", testCfg("x")); err == nil {
		t.Error("migrating unknown replica succeeded")
	}
}

// TestSnapshotConsistencyUnderInterleavedChurn is the churn-under-watch
// contract, run under -race in CI: one goroutine churns continuously
// (Join/Leave/SetPower/Migrate) while reader goroutines take snapshots
// and derived views. Every snapshot must be internally consistent — its
// Population, Distribution and Replicas must describe the same instant —
// even though the membership is moving underneath.
func TestSnapshotConsistencyUnderInterleavedChurn(t *testing.T) {
	r := New(nil)
	for i := 0; i < 16; i++ {
		id := ReplicaID(fmt.Sprintf("base-%02d", i))
		if err := r.JoinDeclared(id, testCfg(fmt.Sprintf("os-%d", i%4)), 10, time.Hour); err != nil {
			t.Fatal(err)
		}
	}

	const (
		readers = 4
		rounds  = 400
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// The churn driver: joins, leaves, power shifts and migrations in a
	// tight loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			id := ReplicaID(fmt.Sprintf("churn-%03d", i))
			if err := r.JoinDeclared(id, testCfg(fmt.Sprintf("os-%d", i%5)), float64(1+i%7), 0); err != nil {
				t.Error(err)
				return
			}
			if err := r.SetPower(id, float64(2+i%9)); err != nil {
				t.Error(err)
				return
			}
			if err := r.Migrate(id, testCfg(fmt.Sprintf("os-%d", (i+1)%5))); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := r.Leave(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := r.Snapshot(DefaultWeighting)
				if err != nil {
					t.Error(err)
					return
				}
				// Internal consistency: the three derived views agree on
				// the same membership.
				if snap.Population().Size() != len(snap.Replicas()) {
					t.Errorf("torn snapshot: population %d members, %d vuln replicas",
						snap.Population().Size(), len(snap.Replicas()))
					return
				}
				var popTotal, repTotal float64
				for _, m := range snap.Population().Members() {
					popTotal += m.Power
				}
				for _, rep := range snap.Replicas() {
					repTotal += rep.Power
				}
				if popTotal != repTotal || popTotal != snap.Distribution.Total() {
					t.Errorf("torn snapshot: power views disagree pop=%v rep=%v dist=%v",
						popTotal, repTotal, snap.Distribution.Total())
					return
				}
				// Identity-stability contract: re-snapshotting the same
				// generation returns the same pointer.
				if again, err := r.Snapshot(DefaultWeighting); err == nil &&
					again.Generation == snap.Generation && again != snap {
					t.Error("same generation produced distinct snapshot pointers")
					return
				}
				if _, _, _, _ = r.TierCounts(); r.Size() < 16 {
					t.Error("base membership shrank")
					return
				}
			}
		}()
	}
	wg.Wait()

	// After the dust settles: invalidation still works and the final
	// membership is what the churn arithmetic says.
	snap, err := r.Snapshot(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	if want := 16 + rounds/2; len(snap.Replicas()) != want {
		t.Errorf("final membership %d, want %d", len(snap.Replicas()), want)
	}
	if snap.Generation != r.Generation() {
		t.Errorf("final snapshot generation %d, registry at %d", snap.Generation, r.Generation())
	}
}

// TestMigrateRacingSnapshotReaders pins the specific race monitord's
// PATCH …/replicas/{id} handler creates: migrations rewriting replica
// configurations in place while concurrent readers (assessment GETs,
// watch ticks) take snapshots. Membership is fixed — only configs move —
// so every snapshot must show a complete, coherent config assignment:
// the per-replica view and the digest distribution must describe the
// same instant, and no replica may ever appear with a config outside the
// migration set or vanish mid-migration.
func TestMigrateRacingSnapshotReaders(t *testing.T) {
	const (
		replicas = 8
		configs  = 3
		rounds   = 600
		readers  = 4
	)
	r := New(nil)
	allowed := make(map[string]bool)
	for c := 0; c < configs; c++ {
		allowed[testCfg(fmt.Sprintf("os-%d", c)).Digest().String()] = true
	}
	for i := 0; i < replicas; i++ {
		id := ReplicaID(fmt.Sprintf("m-%02d", i))
		if err := r.JoinDeclared(id, testCfg(fmt.Sprintf("os-%d", i%configs)), float64(10+i), 0); err != nil {
			t.Fatal(err)
		}
	}
	baseGen := r.Generation()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			id := ReplicaID(fmt.Sprintf("m-%02d", i%replicas))
			if err := r.Migrate(id, testCfg(fmt.Sprintf("os-%d", i%configs))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := r.Snapshot(DefaultWeighting)
				if err != nil {
					t.Error(err)
					return
				}
				if len(snap.Replicas()) != replicas {
					t.Errorf("snapshot shows %d replicas mid-migration, want %d", len(snap.Replicas()), replicas)
					return
				}
				// Cross-view atomicity: the digest histogram recomputed from
				// the per-replica view must be exactly the distribution the
				// snapshot carries — a migration can never be visible in one
				// view and not the other.
				byDigest := make(map[string]float64)
				for _, rep := range snap.Replicas() {
					d := rep.Config.Digest().String()
					if !allowed[d] {
						t.Errorf("replica %s shows config digest %s outside the migration set", rep.Name, d)
						return
					}
					byDigest[d] += rep.Power
				}
				if got, want := snap.Distribution.Support(), len(byDigest); got != want {
					t.Errorf("distribution support %d, per-replica view has %d digests", got, want)
					return
				}
				var total float64
				for _, p := range byDigest {
					total += p
				}
				if total != snap.Distribution.Total() {
					t.Errorf("per-replica power %v, distribution total %v", total, snap.Distribution.Total())
					return
				}
			}
		}()
	}
	wg.Wait()

	if got, want := r.Generation(), baseGen+rounds; got != want {
		t.Errorf("generation %d after %d migrations, want %d", got, rounds, want)
	}
	snap, err := r.Snapshot(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range snap.Replicas() {
		if d := rep.Config.Digest().String(); !allowed[d] {
			t.Errorf("final config for %s outside the migration set: %s", rep.Name, d)
		}
	}
}

// TestSnapshotInvalidationPerMutationKind: each mutation kind, including
// Migrate, bumps the generation and produces a fresh snapshot reflecting
// the change.
func TestSnapshotInvalidationPerMutationKind(t *testing.T) {
	r := New(nil)
	if err := r.JoinDeclared("a", testCfg("debian"), 10, 0); err != nil {
		t.Fatal(err)
	}
	check := func(step string, mutate func() error, verify func(s *Snapshot) error) {
		t.Helper()
		before, err := r.Snapshot(DefaultWeighting)
		if err != nil {
			t.Fatal(err)
		}
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		after, err := r.Snapshot(DefaultWeighting)
		if err != nil {
			t.Fatal(err)
		}
		if after == before {
			t.Fatalf("%s did not invalidate the snapshot", step)
		}
		if err := verify(after); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	check("join", func() error { return r.JoinDeclared("b", testCfg("fedora"), 20, 0) },
		func(s *Snapshot) error {
			if len(s.Replicas()) != 2 {
				return fmt.Errorf("replicas %d, want 2", len(s.Replicas()))
			}
			return nil
		})
	check("setpower", func() error { return r.SetPower("b", 5) },
		func(s *Snapshot) error {
			if s.Distribution.Total() != 15 {
				return fmt.Errorf("total %v, want 15", s.Distribution.Total())
			}
			return nil
		})
	check("migrate", func() error { return r.Migrate("b", testCfg("debian")) },
		func(s *Snapshot) error {
			if s.Distribution.Support() != 1 {
				return fmt.Errorf("support %d, want 1 after converging configs", s.Distribution.Support())
			}
			return nil
		})
	check("leave", func() error { return r.Leave("b") },
		func(s *Snapshot) error {
			if len(s.Replicas()) != 1 {
				return fmt.Errorf("replicas %d, want 1", len(s.Replicas()))
			}
			return nil
		})
}

// TestDeltaSnapshotCarriesPowerClasses: a delta-built snapshot merges the
// changed buckets' groups into its predecessor's power-class histogram.
// After every mutation the carried histogram must be strictly descending in
// Units with no zero Count, equal one counted from the per-replica view,
// and the report built from it must equal the report of a snapshot built
// from scratch — through classes emptying out, buckets disappearing and
// both weightings.
func TestDeltaSnapshotCarriesPowerClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := New(nil)
	weightings := []Weighting{DefaultWeighting, {Attested: 1, Declared: 0.5}}
	var alive []ReplicaID
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(alive) < 4:
			id := ReplicaID(fmt.Sprintf("r-%04d", step))
			if err := r.JoinDeclared(id, testCfg(fmt.Sprintf("os-%d", rng.Intn(5))),
				float64(1+rng.Intn(6)), time.Duration(rng.Intn(3))*time.Hour); err != nil {
				t.Fatal(err)
			}
			alive = append(alive, id)
		case op == 1:
			i := rng.Intn(len(alive))
			if err := r.Leave(alive[i]); err != nil {
				t.Fatal(err)
			}
			alive = append(alive[:i], alive[i+1:]...)
		case op == 2:
			if err := r.SetPower(alive[rng.Intn(len(alive))], float64(1+rng.Intn(6))); err != nil {
				t.Fatal(err)
			}
		default:
			if err := r.Migrate(alive[rng.Intn(len(alive))], testCfg(fmt.Sprintf("os-%d", rng.Intn(5)))); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range weightings {
			snap, err := r.Snapshot(w)
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[uint64]int)
			for _, rep := range snap.Replicas() {
				u, err := vuln.PowerUnits(rep.Power)
				if err != nil {
					t.Fatal(err)
				}
				counts[u]++
			}
			for i, c := range snap.classes {
				if c.Count <= 0 || i > 0 && c.Units >= snap.classes[i-1].Units {
					t.Fatalf("step %d, %+v: carried classes %v are not strictly descending with counts > 0", step, w, snap.classes)
				}
			}
			if want := sortedClasses(counts); !slices.Equal(snap.classes, want) {
				t.Fatalf("step %d, %+v: carried classes %v, counted %v", step, w, snap.classes, want)
			}
			got, err1 := snap.Report()
			fresh, err2 := fromScratch(r, w).Report()
			if err1 != nil || err2 != nil || got != fresh {
				t.Fatalf("step %d, %+v: delta report %+v (%v), fresh %+v (%v)", step, w, got, err1, fresh, err2)
			}
		}
	}
}

// fromScratch is the reference the delta path is checked against: r's
// snapshot under w with every bucket exported afresh, sorted by label, and
// its power-class histogram recounted (recountClasses) rather than merged,
// sharing nothing with a cached snapshot.
func fromScratch(r *Registry, w Weighting) *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	s := &Snapshot{Generation: r.gen, Weighting: w}
	var labels []string
	var units []uint64
	for _, b := range r.buckets {
		sb, err := r.exportBucketLocked(b, w)
		if err != nil {
			panic(err)
		}
		s.buckets = append(s.buckets, sb)
		s.members += sb.Count
	}
	s.classes = recountClasses(s.buckets)
	slices.SortFunc(s.buckets, func(a, b *SnapBucket) int { return strings.Compare(a.Key, b.Key) })
	for _, sb := range s.buckets {
		labels, units = append(labels, sb.Key), append(units, sb.Units)
	}
	dist, err := diversity.FromSorted(labels, units)
	if err != nil {
		panic(err)
	}
	s.Distribution = dist
	return s
}

// recountClasses is the power-class histogram of the buckets counted
// afresh, group by group into a map: the independent reference for the
// histogram Snapshot merges.
func recountClasses(buckets []*SnapBucket) []diversity.PowerClass {
	counts := make(map[uint64]int)
	for _, sb := range buckets {
		for _, g := range sb.Groups {
			counts[g.Units] += len(g.Names)
		}
	}
	return sortedClasses(counts)
}

// sortedClasses lists a units → members count as power classes, Units
// descending.
func sortedClasses(counts map[uint64]int) []diversity.PowerClass {
	var out []diversity.PowerClass
	for u, n := range counts {
		out = append(out, diversity.PowerClass{Units: u, Count: n})
	}
	slices.SortFunc(out, func(a, b diversity.PowerClass) int { return cmp.Compare(b.Units, a.Units) })
	return out
}
