package bftlive

import (
	"testing"

	"repro/internal/cryptoutil"
)

func TestVoterSet(t *testing.T) {
	// Replica i holds power i+1, so the sum names who was counted.
	var v voterSet
	if v.power != 0 {
		t.Fatalf("empty set holds power %v", v.power)
	}
	for _, i := range []int{3, 3, 0, 63, 64, 3, 200, 64, 127, 128} {
		v.add(i, float64(i+1))
	}
	if want := float64(1 + 4 + 64 + 65 + 128 + 129 + 201); v.power != want {
		t.Fatalf("power = %v after re-votes, want %v: each of the 7 distinct senders once, those past replica 63 included", v.power, want)
	}
	before := v
	v.add(200, 201)
	v.add(0, 1)
	if v.power != before.power || v.lo != before.lo {
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
	rd.proposal(a).prepares.add(1, 1)
	rd.proposal(b).prepares.add(2, 1)
	rd.proposal(b).prepares.add(3, 1)
	rd.proposal(a).commits.add(1, 1)
	if pa, pb := rd.find(a), rd.find(b); pa.prepares.power != 1 || pa.commits.power != 1 || pb.prepares.power != 2 || pb.commits.power != 0 {
		t.Fatalf("tallies conflated: a=%+v b=%+v", pa, pb)
	}
	if rd.find(cryptoutil.Digest{}) != nil || len(rd.proposals) != 2 {
		t.Fatalf("find created a proposal: %d", len(rd.proposals))
	}
}

// recordingNode is replica id of an equal-power cluster of four whose
// broadcasts and commits land in the returned slices instead of on a wire.
func recordingNode(id int) (nd *node, sent *[]message, commits *[]Commit) {
	sent, commits = new([]message), new([]Commit)
	nd = newNode(id, equalPower(4), func() Behavior { return Honest },
		func(m message) { *sent = append(*sent, m) },
		func(c Commit) { *commits = append(*commits, c) })
	return nd, sent, commits
}

// TestNodeRejectsMalformedProposal: a pre-prepare whose digest is not the
// hash of its value is ignored even from the real primary, and a
// well-formed one from anybody but the claimed view's primary is ignored
// too — neither is voted for, neither leaves a round behind, and votes
// that then arrive for them commit nothing.
func TestNodeRejectsMalformedProposal(t *testing.T) {
	nd, sent, commits := recordingNode(1)
	bad := message{kind: kindPrePrepare, from: 0, view: 0, seq: 1, digest: digestOf([]byte("other")), value: []byte("value")}
	nd.handle(bad)
	v := []byte("v")
	foreign := message{kind: kindPrePrepare, from: 2, view: 0, seq: 1, digest: digestOf(v), value: v}
	nd.handle(foreign)
	if len(*sent) != 0 || len(nd.rounds) != 0 {
		t.Fatalf("a malformed or non-primary proposal progressed: sent %v, %d rounds", *sent, len(nd.rounds))
	}
	for _, m := range []message{bad, foreign} {
		for from := 0; from < 4; from++ {
			nd.handle(message{kind: kindPrepare, from: from, seq: 1, digest: m.digest})
			nd.handle(message{kind: kindCommit, from: from, seq: 1, digest: m.digest})
		}
	}
	if len(*sent) != 0 || len(*commits) != 0 {
		t.Fatalf("votes for a rejected proposal progressed: sent %v, commits %v", *sent, *commits)
	}
	// The same slot still takes the primary's well-formed proposal.
	nd.handle(message{kind: kindPrePrepare, from: 0, view: 0, seq: 1, digest: digestOf(v), value: v})
	if len(*sent) != 2 || (*sent)[0].kind != kindPrepare || (*sent)[1].kind != kindCommit {
		t.Fatalf("the primary's proposal was not prepared and, on the votes already in, committed to: sent %v", *sent)
	}
	if len(*commits) != 1 || string((*commits)[0].Value) != "v" {
		t.Fatalf("commits = %v, want the one value", *commits)
	}
}

// TestNodeDropsRequestForCommittedDigest: once a value has committed here,
// a request for it is neither banked nor — on the primary — proposed.
func TestNodeDropsRequestForCommittedDigest(t *testing.T) {
	nd, sent, commits := recordingNode(0) // the view-0 primary
	v := []byte("once")
	nd.handle(message{kind: kindRequest, value: v})
	if len(*sent) != 1 || (*sent)[0].kind != kindPrePrepare || !nd.hasPending() {
		t.Fatalf("first request: sent %v, pending %v", *sent, nd.hasPending())
	}
	nd.handle((*sent)[0])
	for from := 0; from < 4; from++ {
		nd.handle(message{kind: kindPrepare, from: from, seq: 1, digest: digestOf(v)})
		nd.handle(message{kind: kindCommit, from: from, seq: 1, digest: digestOf(v)})
	}
	if len(*commits) != 1 || nd.hasPending() {
		t.Fatalf("commits = %v, pending %v; want one commit and an empty backlog", *commits, nd.hasPending())
	}
	before := len(*sent)
	nd.handle(message{kind: kindRequest, value: v})
	if len(*sent) != before || nd.hasPending() || nd.maxSeq != 1 {
		t.Fatalf("a request for a committed value was banked or proposed: %d new messages, pending %v, maxSeq %d",
			len(*sent)-before, nd.hasPending(), nd.maxSeq)
	}
	// A different value is still taken.
	nd.handle(message{kind: kindRequest, value: []byte("twice")})
	if len(*sent) != before+1 || !nd.hasPending() {
		t.Fatal("a fresh request was dropped")
	}
}
