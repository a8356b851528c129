package registry

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/attest"
)

// TestRemovedEntriesLeaveSpareCapacity: a name removed from a group, and a
// group dropped from a bucket, do not stay reachable in the spare capacity
// of the slice they were removed from.
func TestRemovedEntriesLeaveSpareCapacity(t *testing.T) {
	r := New(nil)
	for _, id := range []ReplicaID{"a", "b", "c"} {
		if err := r.JoinDeclared(id, testCfg("debian"), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.JoinDeclared("x", testCfg("debian"), 2, 0); err != nil {
		t.Fatal(err)
	}
	g := r.records["a"]
	if err := r.Leave("c"); err != nil {
		t.Fatal(err)
	}
	if names := g.Names; len(names) != 2 || names[:cap(names)][len(names)] != "" {
		t.Errorf("after Leave(c) the group reads %v and holds %q past its end", names, names[:cap(names)][len(names)])
	}
	if err := r.Leave("x"); err != nil {
		t.Fatal(err)
	}
	if groups := r.slots[g.slot].groups; len(groups) != 1 || groups[:cap(groups)][len(groups)] != nil {
		t.Errorf("after Leave(x) the bucket holds %d groups and a dropped one past its end", len(groups))
	}
}

// TestMutationsKeepStoredID: SetPower and Migrate called with an ID sliced
// out of a larger string (a request line, say) leave the registry holding
// the string the replica joined with, in its entry's key and in its group,
// so no mutation pins the caller's string — whether the group it leaves is
// edited in place or, held by a snapshot, replaced.
func TestMutationsKeepStoredID(t *testing.T) {
	r := New(nil)
	joined := strings.Clone("replica-7")
	if err := r.JoinDeclared(ReplicaID(joined), testCfg("debian"), 1, 0); err != nil {
		t.Fatal(err)
	}
	line := "PATCH /tenants/t/replicas/replica-7 HTTP/1.1"
	i := strings.Index(line, joined)
	caller := ReplicaID(line[i : i+len(joined)])
	check := func(step string) {
		t.Helper()
		for key, g := range r.records {
			if key != ReplicaID(joined) {
				continue
			}
			if unsafe.StringData(string(key)) != unsafe.StringData(joined) {
				t.Errorf("after %s the entry's key is not the joined string", step)
			}
			if i := slices.Index(g.Names, joined); i < 0 || unsafe.StringData(g.Names[i]) != unsafe.StringData(joined) {
				t.Errorf("after %s the group's name is not the joined string", step)
			}
		}
	}
	for _, snap := range []bool{false, true} {
		if err := r.JoinDeclared("other", testCfg("debian"), 2, 0); err != nil {
			t.Fatal(err)
		}
		if snap {
			mustSnapshot(t, r, DefaultWeighting)
		}
		if err := r.SetPower(caller, 2); err != nil {
			t.Fatal(err)
		}
		check("SetPower")
		if snap {
			mustSnapshot(t, r, DefaultWeighting)
		}
		if err := r.Migrate(caller, testCfg("ubuntu")); err != nil {
			t.Fatal(err)
		}
		check("Migrate")
		if err := r.Leave("other"); err != nil {
			t.Fatal(err)
		}
		if err := r.SetPower(caller, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVoteKeysFollowTier: the side map holds a vote key exactly while its
// replica is attested.
func TestVoteKeysFollowTier(t *testing.T) {
	auth := attest.NewAuthority("tpm2")
	r := New(auth)
	attestedJoin(t, r, auth, "p", "debian", 1)
	attestedJoin(t, r, auth, "q", "debian", 1)
	if len(r.voteKeys) != 2 {
		t.Fatalf("%d vote keys after two attested joins", len(r.voteKeys))
	}
	if err := r.Migrate("p", testCfg("ubuntu")); err != nil {
		t.Fatal(err)
	}
	if err := r.Leave("q"); err != nil {
		t.Fatal(err)
	}
	if len(r.voteKeys) != 0 {
		t.Fatalf("vote keys %v outlive the attested tier", r.voteKeys)
	}
}

// TestGroupFitsSizeClass: a group stays in the 48-byte allocation class.
// Most groups of a permissionless fleet hold one replica, so a group's
// bytes are close to a replica's; the 64-byte class costs 16 B more each.
func TestGroupFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(group{}); size > 48 {
		t.Errorf("group is %d B, past the 48-byte size class", size)
	}
}

// TestEmptiedBucketSlotIsReused: a bucket emptied by Leave, SetPower or
// Migrate frees its slot, the next new bucket takes it, and every mutation
// marks the bucket it left, not the one that inherited the slot: each
// snapshot holds exactly the live configurations.
func TestEmptiedBucketSlotIsReused(t *testing.T) {
	r := New(nil)
	for id, name := range map[ReplicaID]string{"a": "debian", "b": "ubuntu"} {
		if err := r.JoinDeclared(id, testCfg(name), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, want ...string) {
		t.Helper()
		var got, keys []string
		for _, b := range mustSnapshot(t, r, DefaultWeighting).BucketSpecs() {
			got = append(got, b.Key)
		}
		for _, name := range want {
			keys = append(keys, testCfg(name).Digest().String())
		}
		slices.Sort(keys)
		if !slices.Equal(got, keys) {
			t.Errorf("after %s the snapshot holds buckets %v, want %v", step, got, want)
		}
		free := 0
		for s := r.freeSlot; s > 0; s = r.slots[s-1].nextFree {
			if b := r.slots[s-1]; b.count != 0 || len(b.groups) != 0 || b.label != "" {
				t.Errorf("after %s free slot %d holds a bucket of %d replicas", step, s-1, b.count)
			}
			free++
		}
		if len(r.slots) != 2 || free != 2-len(r.buckets) {
			t.Errorf("after %s: %d slots, %d free, %d buckets", step, len(r.slots), free, len(r.buckets))
		}
		for id, g := range r.records {
			if b := r.slots[g.slot]; b.count == 0 || b != r.buckets[b.cfg.Digest()] || !slices.Contains(b.groups, g) {
				t.Errorf("after %s replica %s names slot %d, which does not hold its group", step, id, g.slot)
			}
		}
	}
	mustSnapshot(t, r, DefaultWeighting)
	if err := r.Migrate("a", testCfg("fedora")); err != nil {
		t.Fatal(err)
	}
	check("Migrate", "fedora", "ubuntu")
	if err := r.SetPower("a", 2); err != nil {
		t.Fatal(err)
	}
	check("SetPower", "fedora", "ubuntu")
	if err := r.Leave("b"); err != nil {
		t.Fatal(err)
	}
	check("Leave", "fedora")
	if err := r.JoinDeclared("c", testCfg("arch"), 1, 0); err != nil {
		t.Fatal(err)
	}
	check("JoinDeclared", "arch", "fedora")
	if rec, _ := r.Get("a"); !rec.Config.Equal(testCfg("fedora")) || rec.Power != 2 {
		t.Errorf("a reads %v at power %v", rec.Config, rec.Power)
	}
}
