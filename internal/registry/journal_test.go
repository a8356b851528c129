package registry

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
)

// sameAsFull fails unless s describes r's membership exactly as a snapshot
// built from scratch does: a fresh registry holding r's records, snapshot
// once under the same weighting. The records must all be declared.
func sameAsFull(t *testing.T, r *Registry, s *Snapshot) {
	t.Helper()
	fresh := New(nil, nil)
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

// TestStaleSnapshotAllocations: a snapshot that missed more generations
// than the journal keeps is rebuilt in full, deciding that costs nothing
// in proportion to the generations missed, and the journal lets go of the
// burst's backing array.
func TestStaleSnapshotAllocations(t *testing.T) {
	r := New(nil, nil)
	if err := r.JoinDeclared("a", testCfg("debian"), 1, time.Hour); err != nil {
		t.Fatal(err)
	}
	mustSnapshot(t, r, DefaultWeighting)
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
	if m := r.JournalMisses(); m != 1 {
		t.Errorf("journal misses = %d, want 1", m)
	}
	if cap(r.journal) != 0 {
		t.Errorf("the emptied journal keeps the burst's %d entries of capacity", cap(r.journal))
	}
}

// TestJournalMissCount: a snapshot journalKeep generations old is still a
// delta; one generation more is exactly one counted miss, and first builds
// (of the registry, or of another weighting) are not misses.
func TestJournalMissCount(t *testing.T) {
	r := New(nil, nil)
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

	mutate(journalKeep)
	mustSnapshot(t, r, Weighting{Attested: 1, Declared: 0.5})
	s := mustSnapshot(t, r, DefaultWeighting)
	if m := r.JournalMisses(); m != 0 {
		t.Fatalf("a snapshot %d generations old: %d misses, want 0", journalKeep, m)
	}
	if changed, removed := DiffSnapshots(prev, s); len(changed) != 2 || len(removed) != 0 {
		t.Fatalf("delta over %d generations re-exported %d buckets and removed %d, want 2 and 0", journalKeep, len(changed), len(removed))
	}
	sameAsFull(t, r, s)

	mutate(journalKeep + 1)
	s = mustSnapshot(t, r, DefaultWeighting)
	if m := r.JournalMisses(); m != 1 {
		t.Fatalf("a snapshot %d generations old: %d misses, want 1", journalKeep+1, m)
	}
	sameAsFull(t, r, s)
	if again := mustSnapshot(t, r, DefaultWeighting); again != s || r.JournalMisses() != 1 {
		t.Fatal("re-reading an unchanged registry rebuilt or counted a miss")
	}
}

// TestJournalSpansCachedSnapshots: the journal holds only what a cached
// snapshot can still ask for. Nothing before the first snapshot, nothing
// after a snapshot under the only weighting, and under two weightings the
// stale one's generations, up to journalKeep, so its next snapshot is still
// a delta.
func TestJournalSpansCachedSnapshots(t *testing.T) {
	r := New(nil, nil)
	for i := 0; i < 12; i++ {
		if err := r.JoinDeclared(ReplicaID(fmt.Sprintf("r-%02d", i)), testCfg(fmt.Sprintf("os-%d", i%4)), float64(1+i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.journal) != 0 {
		t.Fatalf("%d journal entries before any snapshot", len(r.journal))
	}
	face, half := DefaultWeighting, Weighting{Attested: 1, Declared: 0.5}
	mustSnapshot(t, r, face)
	prevHalf := mustSnapshot(t, r, half)

	// Only r-00 (bucket os-0) and r-01 (os-1) move, reading face each time.
	for i := 0; i < journalKeep; i++ {
		if err := r.SetPower(ReplicaID(fmt.Sprintf("r-%02d", i%2)), float64(20+i%3)); err != nil {
			t.Fatal(err)
		}
		mustSnapshot(t, r, face)
		if len(r.journal) != i+1 {
			t.Fatalf("after %d mutations with half stale: %d journal entries, want %d", i+1, len(r.journal), i+1)
		}
	}
	s := mustSnapshot(t, r, half)
	if m := r.JournalMisses(); m != 0 {
		t.Fatalf("stale weighting's snapshot missed the journal %d times", m)
	}
	if changed, removed := DiffSnapshots(prevHalf, s); len(changed) != 2 || len(removed) != 0 {
		t.Fatalf("stale weighting's delta re-exported %d buckets and removed %d, want 2 and 0", len(changed), len(removed))
	}
	sameAsFull(t, r, s)
	if len(r.journal) != 0 {
		t.Fatalf("%d journal entries with every weighting current", len(r.journal))
	}

	// Past journalMax the stale weighting's entries are capped at journalKeep.
	for i := 0; i <= journalMax; i++ {
		if err := r.SetPower("r-03", float64(1+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	mustSnapshot(t, r, face)
	if len(r.journal) > journalMax {
		t.Fatalf("journal of a stale weighting holds %d entries, cap %d", len(r.journal), journalMax)
	}
	sameAsFull(t, r, mustSnapshot(t, r, half))
	if m := r.JournalMisses(); m != 2 {
		t.Fatalf("misses = %d, want 2 (both weightings past journalKeep)", m)
	}
}

// TestRecordsShareBucketConfiguration: a record holds its bucket's
// configuration, not the value its join or migration built.
func TestRecordsShareBucketConfiguration(t *testing.T) {
	r := New(nil, nil)
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
		if !sameValue(r.records[id].Config, b.cfg) {
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
// and no journal entry nothing can ask for.
func TestResidentHeapAllocations(t *testing.T) {
	const (
		replicas = 32_000
		products = 32
		// Measured 210.6 B per replica (Go 1.24, linux/amd64, with and
		// without -race), plus 10 %. With a configuration value per
		// replica and a journal entry per join it was 389.2 B.
		ceiling = 232
	)
	ids := make([]ReplicaID, replicas)
	for i := range ids {
		ids[i] = ReplicaID(fmt.Sprintf("r-%07d", i))
	}
	base := heapAfterGC()
	r := New(nil, nil)
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
	if len(r.journal) != 0 {
		t.Errorf("%d journal entries after a snapshot under the only weighting", len(r.journal))
	}
}
