package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/config"
)

// sameAsFull fails unless s describes r's membership exactly as a snapshot
// built from scratch does: a fresh registry holding r's records, snapshot
// once under the same weighting. The records must all be declared.
func sameAsFull(t *testing.T, r *Registry, s *Snapshot) {
	t.Helper()
	fresh := New(nil)
	for _, rec := range r.Records() {
		if err := fresh.JoinDeclared(rec.ID, rec.Config, rec.Power, rec.PatchLatency); err != nil {
			t.Fatal(err)
		}
	}
	full, err := fresh.Snapshot(s.Weighting)
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation != r.Generation() {
		t.Fatalf("snapshot at generation %d, registry at %d", s.Generation, r.Generation())
	}
	if !reflect.DeepEqual(s.Distribution, full.Distribution) {
		t.Fatalf("distribution %+v, full build %+v", s.Distribution, full.Distribution)
	}
	if !reflect.DeepEqual(s.Replicas(), full.Replicas()) {
		t.Fatal("per-replica view differs from a full build")
	}
	got, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := full.Report(); got != want {
		t.Fatalf("report %+v, full build %+v", got, want)
	}
}

func mustSnapshot(t *testing.T, r *Registry, w Weighting) *Snapshot {
	t.Helper()
	s, err := r.Snapshot(w)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStaleSnapshotAllocations: a snapshot that missed 100 000 mutations
// of one bucket re-exports that bucket alone, so it costs nothing in
// proportion to the mutations missed.
func TestStaleSnapshotAllocations(t *testing.T) {
	r := New(nil)
	if err := r.JoinDeclared("a", testCfg("debian"), 1, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := r.JoinDeclared("b", testCfg("ubuntu"), 1, time.Hour); err != nil {
		t.Fatal(err)
	}
	prev := mustSnapshot(t, r, DefaultWeighting)
	for i := 0; i < 100_000; i++ {
		if err := r.SetPower("a", float64(1+i%7)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := mustSnapshot(t, r, DefaultWeighting)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("snapshot after 100 000 unread mutations allocated %d bytes, ceiling 1 MiB", d)
	}
	sameAsFull(t, r, s)
	if changed, removed := DiffSnapshots(prev, s); len(changed) != 1 || len(removed) != 0 {
		t.Errorf("re-exported %d buckets and removed %d, want 1 and 0", len(changed), len(removed))
	}
}

// TestJournalMissCount: a snapshot 4 096 generations old (the bound the
// mutation journal once had) is a delta, and so is one a generation older:
// there is no miss left to count. Each re-exports the two touched buckets
// and equals a full build, and re-reading an unchanged registry returns
// the same snapshot.
func TestJournalMissCount(t *testing.T) {
	const oldBound = 4096
	r := New(nil)
	for i := 0; i < 8; i++ {
		if err := r.JoinDeclared(ReplicaID(fmt.Sprintf("r-%d", i)), testCfg(fmt.Sprintf("os-%d", i%3)), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	prev := mustSnapshot(t, r, DefaultWeighting)
	mustSnapshot(t, r, Weighting{Attested: 1, Declared: 0.5})
	mutate := func(n int) {
		for i := 0; i < n; i++ {
			if err := r.SetPower(ReplicaID(fmt.Sprintf("r-%d", i%2)), float64(2+i%5)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, n := range []int{oldBound, oldBound + 1} {
		mutate(n)
		mustSnapshot(t, r, Weighting{Attested: 1, Declared: 0.5})
		s := mustSnapshot(t, r, DefaultWeighting)
		if changed, removed := DiffSnapshots(prev, s); len(changed) != 2 || len(removed) != 0 {
			t.Fatalf("delta over %d generations re-exported %d buckets and removed %d, want 2 and 0", n, len(changed), len(removed))
		}
		sameAsFull(t, r, s)
		if again := mustSnapshot(t, r, DefaultWeighting); again != s {
			t.Fatal("re-reading an unchanged registry rebuilt the snapshot")
		}
		prev = s
	}
}

// TestJournalSpansCachedSnapshots: the registry keeps only what a cached
// snapshot can still ask for. Nothing before the first snapshot, an empty
// dirty set after a snapshot under the only weighting, and under two
// weightings the stale one's touched buckets, each once however many
// mutations touched it, so its next snapshot is still a delta.
func TestJournalSpansCachedSnapshots(t *testing.T) {
	const oldMax = 2 * 4096 // the mutation journal's former cap
	r := New(nil)
	for i := 0; i < 12; i++ {
		if err := r.JoinDeclared(ReplicaID(fmt.Sprintf("r-%02d", i)), testCfg(fmt.Sprintf("os-%d", i%4)), float64(1+i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.snaps) != 0 {
		t.Fatalf("%d cached snapshots before any snapshot", len(r.snaps))
	}
	face, half := DefaultWeighting, Weighting{Attested: 1, Declared: 0.5}
	mustSnapshot(t, r, face)
	if n := len(r.snaps[face].dirty); n != 0 {
		t.Fatalf("%d dirty buckets with the only weighting current", n)
	}
	prevHalf := mustSnapshot(t, r, half)

	// Only r-00 (bucket os-0) and r-01 (os-1) move, reading face each time.
	for i := 0; i < 4096; i++ {
		if err := r.SetPower(ReplicaID(fmt.Sprintf("r-%02d", i%2)), float64(20+i%3)); err != nil {
			t.Fatal(err)
		}
		mustSnapshot(t, r, face)
		if n := len(r.snaps[face].dirty); n != 0 {
			t.Fatalf("after %d mutations: %d dirty buckets under the weighting just read", i+1, n)
		}
		if n, want := len(r.snaps[half].dirty), min(i+1, 2); n != want {
			t.Fatalf("after %d mutations with half stale: %d dirty buckets, want %d", i+1, n, want)
		}
	}
	s := mustSnapshot(t, r, half)
	if changed, removed := DiffSnapshots(prevHalf, s); len(changed) != 2 || len(removed) != 0 {
		t.Fatalf("stale weighting's delta re-exported %d buckets and removed %d, want 2 and 0", len(changed), len(removed))
	}
	sameAsFull(t, r, s)
	for w, c := range r.snaps {
		if len(c.dirty) != 0 {
			t.Fatalf("%+v: %d dirty buckets with every weighting current", w, len(c.dirty))
		}
	}

	// Past the journal's former cap both weightings hold one dirty bucket.
	for i := 0; i <= oldMax; i++ {
		if err := r.SetPower("r-03", float64(1+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	for w, c := range r.snaps {
		if len(c.dirty) != 1 {
			t.Fatalf("%+v: %d dirty buckets after %d mutations of one bucket, want 1", w, len(c.dirty), oldMax+1)
		}
	}
	prevHalf = s
	mustSnapshot(t, r, face)
	s = mustSnapshot(t, r, half)
	if changed, removed := DiffSnapshots(prevHalf, s); len(changed) != 1 || len(removed) != 0 {
		t.Fatalf("delta over %d generations re-exported %d buckets and removed %d, want 1 and 0", oldMax+1, len(changed), len(removed))
	}
	sameAsFull(t, r, s)
}

// TestPropDirtySetsMatchFull: random Join/Leave/SetPower/Migrate under two
// weightings, one read after every step and one about every 5 000 steps,
// so thousands of mutations go unread between two of its snapshots. Every
// snapshot equals a fresh registry's, and against the weighting's previous
// snapshot DiffSnapshots re-exports exactly the touched buckets that exist
// and removes exactly the touched ones that emptied. A bucket no operation
// touches after the first snapshot is never re-exported.
func TestPropDirtySetsMatchFull(t *testing.T) {
	const steps = 10_500
	rng := rand.New(rand.NewSource(30))
	r := New(nil)
	for _, id := range []ReplicaID{"quiet-0", "quiet-1"} {
		if err := r.JoinDeclared(id, testCfg("quiet"), 3, 0); err != nil {
			t.Fatal(err)
		}
	}
	type reader struct {
		w       Weighting
		every   int
		prev    *Snapshot
		touched map[string]bool // labels of the buckets mutated since prev
	}
	readers := []*reader{
		{w: DefaultWeighting, every: 1},
		{w: Weighting{Attested: 1, Declared: 0.5}, every: 5_000},
	}
	for _, rd := range readers {
		rd.prev, rd.touched = mustSnapshot(t, r, rd.w), map[string]bool{}
	}
	cfgs := make([]config.Configuration, 6)
	for i := range cfgs {
		cfgs[i] = testCfg(fmt.Sprintf("os-%d", i))
	}
	var alive []ReplicaID
	for step := 1; step <= steps; step++ {
		var touched []config.Configuration
		var err error
		switch op := rng.Intn(4); {
		case op == 0 || len(alive) < 3:
			id, cfg := ReplicaID(fmt.Sprintf("r-%05d", step)), cfgs[rng.Intn(len(cfgs))]
			err = r.JoinDeclared(id, cfg, float64(1+rng.Intn(4)), 0)
			alive = append(alive, id)
			touched = append(touched, cfg)
		case op == 1:
			i := rng.Intn(len(alive))
			rec, _ := r.Get(alive[i])
			err = r.Leave(alive[i])
			alive = append(alive[:i], alive[i+1:]...)
			touched = append(touched, rec.Config)
		case op == 2:
			id := alive[rng.Intn(len(alive))]
			rec, _ := r.Get(id)
			err = r.SetPower(id, float64(1+rng.Intn(4)))
			touched = append(touched, rec.Config)
		default:
			id, cfg := alive[rng.Intn(len(alive))], cfgs[rng.Intn(len(cfgs))]
			rec, _ := r.Get(id)
			err = r.Migrate(id, cfg)
			touched = append(touched, rec.Config, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, rd := range readers {
			for _, cfg := range touched {
				rd.touched[cfg.Digest().String()] = true
			}
			if step%rd.every != 0 && step != steps {
				continue
			}
			s := mustSnapshot(t, r, rd.w)
			sameAsFull(t, r, s)
			var wantChanged, wantRemoved []string
			for _, sb := range s.buckets {
				if rd.touched[sb.Key] {
					wantChanged = append(wantChanged, sb.Key)
				}
			}
			for _, sb := range rd.prev.buckets {
				if rd.touched[sb.Key] && !slices.ContainsFunc(s.buckets, func(n *SnapBucket) bool { return n.Key == sb.Key }) {
					wantRemoved = append(wantRemoved, sb.Key)
				}
			}
			changed, removed := DiffSnapshots(rd.prev, s)
			var gotChanged []string
			for _, b := range changed {
				gotChanged = append(gotChanged, b.Key)
			}
			if !slices.Equal(gotChanged, wantChanged) || !slices.Equal(removed, wantRemoved) {
				t.Fatalf("step %d, %+v: re-exported %v and removed %v, touched %v and emptied %v", step, rd.w, gotChanged, removed, wantChanged, wantRemoved)
			}
			rd.prev, rd.touched = s, map[string]bool{}
		}
	}
}

// TestRecordsShareBucketConfiguration: a record holds its bucket's
// configuration, not the value its join or migration built.
func TestRecordsShareBucketConfiguration(t *testing.T) {
	r := New(nil)
	for _, id := range []ReplicaID{"a", "b"} {
		if err := r.JoinDeclared(id, testCfg("debian"), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.JoinDeclared("c", testCfg("ubuntu"), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Migrate("c", testCfg("debian")); err != nil {
		t.Fatal(err)
	}
	b := r.buckets[testCfg("debian").Digest()]
	for _, id := range []ReplicaID{"a", "b", "c"} {
		if !sameValue(r.slots[r.records[id].slot].cfg, b.cfg) {
			t.Errorf("%s: record keeps its own configuration value", id)
		}
	}
}

// sameValue reports whether two configurations are one value, not merely
// equal ones.
func sameValue(a, b config.Configuration) bool {
	return reflect.ValueOf(a).FieldByName("v").Pointer() == reflect.ValueOf(b).FieldByName("v").Pointer()
}

// TestResidentHeapAllocations: 32 000 joins, each with its own freshly
// built configuration over 32 products, and one snapshot retain at most
// the ceiling per replica. The registry keeps one configuration per bucket
// and, per cached weighting, only the keys of buckets mutated since.
func TestResidentHeapAllocations(t *testing.T) {
	const (
		replicas = 32_000
		products = 32
		// Measured 87.9 B per replica (Go 1.24, linux/amd64; 88.0 under
		// -race), plus 10 %. With a bucket pointer in every group, which
		// put it in the 64-byte size class, it was 95.6 B; with a two-word
		// entry per replica and a copy of every group in the snapshot,
		// 139.4 B; with a record per replica and an ID-order slice,
		// 210.6 B; with a configuration value per replica and a journal
		// entry per join as well, 389.2 B.
		ceiling = 97
	)
	ids := make([]ReplicaID, replicas)
	for i := range ids {
		ids[i] = ReplicaID(fmt.Sprintf("r-%07d", i))
	}
	base := heapAfterGC()
	r := New(nil)
	for i, id := range ids {
		cfg := config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: fmt.Sprintf("os-%d", i%products), Version: "1"})
		if err := r.JoinDeclared(id, cfg, float64(1+i%97), time.Duration(i%5)*12*time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	mustSnapshot(t, r, DefaultWeighting)
	perReplica := float64(heapAfterGC()-base) / replicas
	runtime.KeepAlive(r)
	t.Logf("retained %.1f B per replica", perReplica)
	if perReplica > ceiling {
		t.Errorf("retained %.1f B per replica, ceiling %d", perReplica, ceiling)
	}
}
