package bftlive

import (
	"testing"

	"repro/internal/cryptoutil"
)

func TestVoterSet(t *testing.T) {
	var v voterSet
	if v.count != 0 {
		t.Fatalf("empty set counts %d", v.count)
	}
	for _, i := range []int{3, 3, 0, 63, 64, 3, 200, 64, 127, 128} {
		v.add(i)
	}
	if v.count != 7 { // 0 3 63 64 127 128 200
		t.Fatalf("count = %d after re-votes, want 7 distinct senders", v.count)
	}
	before := v
	v.add(200)
	v.add(0)
	if v.count != before.count || v.lo != before.lo {
		t.Fatal("a repeated vote changed the set")
	}
	if len(v.hi) != 3 {
		t.Fatalf("replica 200 grew %d overflow words, want 3", len(v.hi))
	}
}

// TestRoundKeepsDigestsApart pins what the per-digest maps guaranteed: an
// equivocating primary's proposals tally separately, in arrival order.
func TestRoundKeepsDigestsApart(t *testing.T) {
	a, b := digestOf([]byte("a")), digestOf([]byte("b"))
	rd := &liveRound{}
	if rd.find(a) != nil {
		t.Fatal("empty round knows a digest")
	}
	rd.proposal(a).prepares.add(1)
	rd.proposal(b).prepares.add(2)
	rd.proposal(b).prepares.add(3)
	rd.proposal(a).commits.add(1)
	if pa, pb := rd.find(a), rd.find(b); pa.prepares.count != 1 || pa.commits.count != 1 || pb.prepares.count != 2 || pb.commits.count != 0 {
		t.Fatalf("tallies conflated: a=%+v b=%+v", pa, pb)
	}
	if rd.find(cryptoutil.Digest{}) != nil || len(rd.proposals) != 2 {
		t.Fatalf("find created a proposal: %d", len(rd.proposals))
	}
}
