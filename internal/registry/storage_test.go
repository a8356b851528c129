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
	if groups := g.b.groups; len(groups) != 1 || groups[:cap(groups)][len(groups)] != nil {
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
