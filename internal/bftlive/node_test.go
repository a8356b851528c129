package bftlive

import (
	"math/big"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func TestVoterSet(t *testing.T) {
	// Replica i holds power i+1, so the sum names who was counted.
	var v voterSet
	if v.power != 0 {
		t.Fatalf("empty set holds power %v", v.power)
	}
	for _, i := range []int{3, 3, 0, 63, 64, 3, 200, 64, 127, 128} {
		v.add(i, uint64(i+1))
	}
	if want := uint64(1 + 4 + 64 + 65 + 128 + 129 + 201); v.power != want {
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
	return recordingNodeWithPower(id, equalPower(4))
}

// recordingNodeWithPower is recordingNode for a cluster of len(power)
// replicas holding the given voting power.
func recordingNodeWithPower(id int, power []uint64) (nd *node, sent *[]message, commits *[]Commit) {
	sent, commits = new([]message), new([]Commit)
	nd = newNode(id, power, func() Behavior { return Honest },
		func(m message) { *sent = append(*sent, m) },
		func(c Commit) { *commits = append(*commits, c) })
	return nd, sent, commits
}

// request hands nd a client request for value, built as Submit builds it.
func request(nd *node, value []byte) {
	m := newRequest(value)
	nd.handle(&m)
}

// TestNodeRejectsMalformedProposal: a pre-prepare whose digest is not the
// hash of its value is ignored even from the real primary, and a
// well-formed one from anybody but the claimed view's primary is ignored
// too — neither is voted for, neither leaves a round behind, and votes
// that then arrive for them commit nothing.
func TestNodeRejectsMalformedProposal(t *testing.T) {
	nd, sent, commits := recordingNode(1)
	bad := message{kind: kindPrePrepare, from: 0, view: 0, seq: 1, digest: digestOf([]byte("other")), value: []byte("value")}
	nd.handle(&bad)
	v := []byte("v")
	foreign := message{kind: kindPrePrepare, from: 2, view: 0, seq: 1, digest: digestOf(v), value: v}
	nd.handle(&foreign)
	if len(*sent) != 0 || len(nd.rounds) != 0 {
		t.Fatalf("a malformed or non-primary proposal progressed: sent %v, %d rounds", *sent, len(nd.rounds))
	}
	for _, m := range []message{bad, foreign} {
		for from := 0; from < 4; from++ {
			nd.handle(&message{kind: kindPrepare, from: from, seq: 1, digest: m.digest})
			nd.handle(&message{kind: kindCommit, from: from, seq: 1, digest: m.digest})
		}
	}
	if len(*sent) != 0 || len(*commits) != 0 {
		t.Fatalf("votes for a rejected proposal progressed: sent %v, commits %v", *sent, *commits)
	}
	// The same slot still takes the primary's well-formed proposal.
	nd.handle(&message{kind: kindPrePrepare, from: 0, view: 0, seq: 1, digest: digestOf(v), value: v})
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
	request(nd, v)
	if len(*sent) != 1 || (*sent)[0].kind != kindPrePrepare || !nd.hasPending() {
		t.Fatalf("first request: sent %v, pending %v", *sent, nd.hasPending())
	}
	nd.handle(&(*sent)[0])
	for from := 0; from < 4; from++ {
		nd.handle(&message{kind: kindPrepare, from: from, seq: 1, digest: digestOf(v)})
		nd.handle(&message{kind: kindCommit, from: from, seq: 1, digest: digestOf(v)})
	}
	if len(*commits) != 1 || nd.hasPending() {
		t.Fatalf("commits = %v, pending %v; want one commit and an empty backlog", *commits, nd.hasPending())
	}
	before := len(*sent)
	request(nd, v)
	if len(*sent) != before || nd.hasPending() || nd.maxSeq != 1 {
		t.Fatalf("a request for a committed value was banked or proposed: %d new messages, pending %v, maxSeq %d",
			len(*sent)-before, nd.hasPending(), nd.maxSeq)
	}
	// A different value is still taken.
	request(nd, []byte("twice"))
	if len(*sent) != before+1 || !nd.hasPending() {
		t.Fatal("a fresh request was dropped")
	}
}

// TestNodeDropsMessageFromNonMember: a vote is tallied under its sender's
// index, so a sender that is no replica must never reach the tally — it is
// dropped, not a panic, and leaves no state behind. A request names no
// sender and is banked whatever the field holds.
func TestNodeDropsMessageFromNonMember(t *testing.T) {
	v := []byte("v")
	for _, kind := range []msgKind{kindRequest, kindPrePrepare, kindPrepare, kindCommit, kindViewChange} {
		for _, from := range []int{-1, 4, 1 << 20} {
			nd, sent, commits := recordingNode(1)
			nd.handle(&message{kind: kind, from: from, view: 1, seq: 1, digest: digestOf(v), value: v})
			if len(*sent) != 0 || len(*commits) != 0 || len(nd.rounds) != 0 || len(nd.viewVotes) != 0 || nd.view != 0 {
				t.Errorf("kind %d from %d: sent %v, commits %v, %d rounds, %d view tallies, view %d; want nothing",
					kind, from, *sent, *commits, len(nd.rounds), len(nd.viewVotes), nd.view)
			}
			if banked := nd.hasPending(); banked != (kind == kindRequest) {
				t.Errorf("kind %d from %d: pending = %v", kind, from, banked)
			}
		}
	}
}

// vote hands nd a prepare and then a commit for d at slot 1 from each
// replica in from.
func vote(nd *node, d cryptoutil.Digest, from ...int) {
	for _, i := range from {
		nd.handle(&message{kind: kindPrepare, from: i, seq: 1, digest: d})
		nd.handle(&message{kind: kindCommit, from: i, seq: 1, digest: d})
	}
}

// TestQuorumIsStrictlyMoreThanTwoThirds is Sec. II-C's bound where the
// code lives: with six equal replicas four votes are exactly 2/3 and must
// move nothing — two such sets can share as few as two replicas, exactly
// the 1/3 the protocol tolerates as Byzantine — and the fifth vote does.
func TestQuorumIsStrictlyMoreThanTwoThirds(t *testing.T) {
	nd, sent, commits := recordingNodeWithPower(1, equalPower(6))
	v := []byte("v")
	d := digestOf(v)
	nd.handle(&message{kind: kindPrePrepare, from: 0, seq: 1, digest: d, value: v})
	vote(nd, d, 0, 1, 2, 3)
	if len(*sent) != 1 || (*sent)[0].kind != kindPrepare || len(*commits) != 0 {
		t.Fatalf("4 of 6 prepares and commits, exactly 2/3: sent %v, commits %v; want the node's own prepare and nothing else", *sent, *commits)
	}
	nd.handle(&message{kind: kindPrepare, from: 4, seq: 1, digest: d})
	if len(*sent) != 2 || (*sent)[1].kind != kindCommit || len(*commits) != 0 {
		t.Fatalf("the 5th prepare: sent %v, commits %v; want a commit vote and no commit yet", *sent, *commits)
	}
	nd.handle(&message{kind: kindCommit, from: 4, seq: 1, digest: d})
	if len(*commits) != 1 || string((*commits)[0].Value) != "v" {
		t.Fatalf("the 5th commit vote: commits %v, want the value", *commits)
	}
}

// TestQuorumCountsPowerNotReplicas: with power {5,1,1,1,1,1} replica 0 and
// any two others hold 7 of 10 and are a quorum; the five small replicas
// together hold 5 of 10 and are not, though they are five of six.
func TestQuorumCountsPowerNotReplicas(t *testing.T) {
	power := []uint64{5, 1, 1, 1, 1, 1}
	v := []byte("v")
	d := digestOf(v)
	for a := 1; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			nd, sent, commits := recordingNodeWithPower(1, power)
			nd.handle(&message{kind: kindPrePrepare, from: 0, seq: 1, digest: d, value: v})
			vote(nd, d, 0, a, b)
			if len(*sent) != 2 || (*sent)[1].kind != kindCommit || len(*commits) != 1 {
				t.Errorf("replicas 0, %d, %d hold 7 of 10: sent %v, commits %v; want a commit vote and a commit", a, b, *sent, *commits)
			}
		}
	}
	nd, sent, commits := recordingNodeWithPower(1, power)
	nd.handle(&message{kind: kindPrePrepare, from: 0, seq: 1, digest: d, value: v})
	vote(nd, d, 1, 2, 3, 4, 5)
	if len(*sent) != 1 || len(*commits) != 0 {
		t.Errorf("replicas 1-5 hold 5 of 10: sent %v, commits %v; want no progress", *sent, *commits)
	}
}

// TestViewChangeThresholds: with six equal replicas a view vote is echoed
// on more than 1/3 of the power (the 3rd vote, not the 2nd) and the view
// installed on more than 2/3 (the 5th, not the 4th).
func TestViewChangeThresholds(t *testing.T) {
	nd, sent, _ := recordingNodeWithPower(1, equalPower(6))
	for i, want := range []struct {
		echoed bool
		view   uint64
	}{{false, 0}, {false, 0}, {true, 0}, {true, 0}, {true, 1}} {
		nd.handle(&message{kind: kindViewChange, from: 5 - i, view: 1})
		if echoed := len(*sent) == 1; echoed != want.echoed || nd.view != want.view || len(*sent) > 1 {
			t.Fatalf("after %d of 6 votes for view 1: sent %v, view %d; want echoed=%v, view %d", i+1, *sent, nd.view, want.echoed, want.view)
		}
	}
	if m := (*sent)[0]; m.kind != kindViewChange || m.view != 1 || m.from != 1 {
		t.Fatalf("echo = %+v, want replica 1's vote for view 1", m)
	}

	// The thresholds are of power: replica 0 and two others install a view
	// with 7 of 10, the other five replicas only echo it with 5 of 10.
	power := []uint64{5, 1, 1, 1, 1, 1}
	nd, _, _ = recordingNodeWithPower(1, power)
	for _, from := range []int{0, 2, 3} {
		nd.handle(&message{kind: kindViewChange, from: from, view: 2})
	}
	if nd.view != 2 {
		t.Fatalf("replicas 0, 2, 3 hold 7 of 10 and voted for view 2: view %d", nd.view)
	}
	nd, sent, _ = recordingNodeWithPower(1, power)
	for from := 1; from < 6; from++ {
		nd.handle(&message{kind: kindViewChange, from: from, view: 2})
	}
	if nd.view != 0 || len(*sent) != 1 {
		t.Fatalf("replicas 1-5 hold 5 of 10 and voted for view 2: view %d, sent %v; want view 0 and one echo", nd.view, *sent)
	}
}

// TestCommitCarriesTheCommittedDigest: under equivocation a replica that
// accepted one proposal can commit the other on a certificate (it knows
// the value from the request). The commit it reports is for what it
// committed, value and digest alike.
func TestCommitCarriesTheCommittedDigest(t *testing.T) {
	nd, _, commits := recordingNode(1)
	a, b := []byte("a"), []byte("b")
	request(nd, b)
	nd.handle(&message{kind: kindPrePrepare, from: 0, seq: 1, digest: digestOf(a), value: a})
	for _, from := range []int{0, 2, 3} {
		nd.handle(&message{kind: kindCommit, from: from, seq: 1, digest: digestOf(b)})
	}
	if len(*commits) != 1 {
		t.Fatalf("commits = %v, want one on the certificate for b", *commits)
	}
	if c := (*commits)[0]; string(c.Value) != "b" || c.digest != digestOf(b) {
		t.Fatalf("committed %q under digest %s, want b under %s", c.Value, c.digest.Short(), digestOf(b).Short())
	}
}

// TestQuorumVerdictIsExact: the quorum (3·w > 2·total) and echo (3·w >
// total) verdicts on a voter set are what exact rational arithmetic on the
// SimWithPower weights gives, in every order the votes can arrive. The
// first row is a set that holds exactly 2/3 — {0.9, 0.5, 0.4} of 2.7 — which
// float64 sums called a quorum in one order and not in another; the rest are
// random one-decimal weight vectors.
func TestQuorumVerdictIsExact(t *testing.T) {
	rows := [][]float64{{0.1, 0.9, 0.5, 0.3, 0.5, 0.4}}
	rng := rand.New(rand.NewSource(9))
	for len(rows) < 200 {
		w := make([]float64, 4+rng.Intn(3))
		for i := range w {
			w[i] = float64(1+rng.Intn(20)) / 10
		}
		rows = append(rows, w)
	}
	for _, w := range rows {
		net, err := simnet.New(sim.NewScheduler(1), simnet.FixedLatency(time.Millisecond), 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSimCluster(net, len(w), SimWithPower(w))
		if err != nil {
			t.Fatal(err)
		}
		nd := s.nodes[0]
		exact := make([]*big.Rat, len(w))
		total := new(big.Rat)
		for i, p := range w {
			exact[i], _ = new(big.Rat).SetString(strconv.FormatFloat(p, 'f', -1, 64))
			total.Add(total, exact[i])
		}
		for set := 1; set < 1<<len(w); set++ {
			var voters []int
			held := new(big.Rat)
			for i := range w {
				if set&(1<<i) != 0 {
					voters = append(voters, i)
					held.Add(held, exact[i])
				}
			}
			three := new(big.Rat).Mul(big.NewRat(3, 1), held)
			wantQuorum := three.Cmp(new(big.Rat).Mul(big.NewRat(2, 1), total)) > 0
			wantEcho := three.Cmp(total) > 0
			permute(voters, 0, func(order []int) {
				var v voterSet
				for _, i := range order {
					v.add(i, nd.power[i])
				}
				if quorum, echo := nd.quorate(v.power), 3*v.power > nd.total; quorum != wantQuorum || echo != wantEcho {
					t.Fatalf("power %v, votes in order %v: quorum %v echo %v, exact arithmetic says %v and %v", w, order, quorum, echo, wantQuorum, wantEcho)
				}
			})
		}
	}
}

// permute calls fn with every ordering of ids[k:] behind ids[:k], permuting
// ids in place and restoring it.
func permute(ids []int, k int, fn func([]int)) {
	if k == len(ids) {
		fn(ids)
		return
	}
	for i := k; i < len(ids); i++ {
		ids[k], ids[i] = ids[i], ids[k]
		permute(ids, k+1, fn)
		ids[k], ids[i] = ids[i], ids[k]
	}
}
