package bftlive

import (
	"repro/internal/cryptoutil"
)

// Behavior selects how a replica conducts itself in the protocol.
// SimCluster.SetBehavior switches it, so the live loop can turn an
// implanted replica Byzantine mid-run.
type Behavior uint8

// Replica behaviors.
const (
	// Honest follows the three-phase protocol.
	Honest Behavior = iota
	// Silent participates in nothing: a crashed, stalled or muted replica.
	Silent
	// Promiscuous endorses every digest it is shown, immediately and at
	// both vote phases — the collusion that lets an equivocating primary
	// assemble conflicting quorums.
	Promiscuous
)

// String returns the canonical lowercase behavior name.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case Silent:
		return "silent"
	case Promiscuous:
		return "promiscuous"
	default:
		return "unknown"
	}
}

// digestOf is the domain-separated value digest.
func digestOf(value []byte) cryptoutil.Digest {
	return cryptoutil.Hash([]byte("repro/bftlive/value/v1"), value)
}

// pendingReq is a client request a replica has seen but not yet committed.
// The primary of the current view proposes from this backlog, and a newly
// installed primary re-proposes whatever is left, so requests orphaned by
// a crashed primary still commit. Re-proposal is at-least-once across
// views — a backlog entry still in flight under the old primary can commit
// at two sequence numbers — and per-sequence agreement remains the safety
// property. A value this node has already committed is different: a
// request for it is dropped on arrival (node.done), so submitting a
// committed value again commits nothing.
type pendingReq struct {
	digest cryptoutil.Digest
	value  []byte // the request's slice, shared and never written (see message.value)
}

// voterSet is a set of replica indices that keeps the summed voting power
// of its members: a quorum test is one read, a vote a bit set. The zero
// value is the empty set.
type voterSet struct {
	lo    uint64   // replicas 0..63
	hi    []uint64 // replicas 64 and up, grown on demand
	power float64  // summed power of the distinct voters
}

// add records a vote from replica i, which holds power w; a repeated vote
// changes nothing.
func (v *voterSet) add(i int, w float64) {
	word := &v.lo
	if i >= 64 {
		k := i/64 - 1
		for len(v.hi) <= k {
			v.hi = append(v.hi, 0)
		}
		word = &v.hi[k]
	}
	if bit := uint64(1) << (i % 64); *word&bit == 0 {
		*word |= bit
		v.power += w
	}
}

// proposal is what a round knows about one digest: the value, who voted
// for it at each phase, and which of its own votes this replica has cast.
type proposal struct {
	digest   cryptoutil.Digest
	value    []byte
	prepares voterSet
	commits  voterSet
	sentPrep bool
	sentComm bool
}

// liveRound tracks one sequence slot. Votes are kept per digest so an
// equivocating primary's conflicting proposals accumulate separate quorums
// instead of being conflated. A round almost always sees one digest, so
// the proposals are a slice searched in arrival order.
type liveRound struct {
	accepted  bool
	digest    cryptoutil.Digest // the honest-accepted proposal
	committed bool
	proposals []proposal
	first     [1]proposal // where proposals starts out: a second digest moves it to the heap
}

// roundChunk is how many rounds a node carves from one allocation. A round
// lives as long as its node, so the chunks are never reused.
const roundChunk = 8

// find returns the round's state for digest d, or nil if d was never seen.
// The pointer is good until the next call to proposal.
func (rd *liveRound) find(d cryptoutil.Digest) *proposal {
	for i := range rd.proposals {
		if rd.proposals[i].digest == d {
			return &rd.proposals[i]
		}
	}
	return nil
}

// proposal returns the round's state for digest d, creating it on first
// sight.
func (rd *liveRound) proposal(d cryptoutil.Digest) *proposal {
	if p := rd.find(d); p != nil {
		return p
	}
	rd.proposals = append(rd.proposals, proposal{digest: d})
	return &rd.proposals[len(rd.proposals)-1]
}

// node is the replica state machine. It knows no wire: out, onCommit and
// behavior are what SimCluster (or a test's recorder) plugs in. Calls into
// one node must be serialized; SimCluster's single-threaded scheduler
// callbacks are.
type node struct {
	id       int
	power    []float64 // voting power per replica, one slice shared by the cluster's nodes
	total    float64   // summed power
	behavior func() Behavior
	// out broadcasts a message to every replica including the sender, so a
	// replica's own vote counts toward its quorums.
	out      func(m message)
	onCommit func(c Commit)
	// onView, when set, is notified after the node installs or adopts a
	// higher view.
	onView func(v uint64)

	view      uint64               // current installed view
	votedView uint64               // highest view this node voted to enter
	viewVotes map[uint64]*voterSet // view-change votes per proposed view
	maxSeq    uint64               // highest sequence proposed or seen
	pending   []pendingReq         // uncommitted client requests, arrival order
	committed int                  // local commit count (progress signal)
	rounds    map[uint64]*liveRound
	lastSeq   uint64      // the sequence number round was last asked for,
	last      *liveRound  // and what it returned: most votes are for the open slot
	spare     []liveRound // the unused rest of the current chunk of rounds
	// done holds the digest of every value this node has committed; a
	// request for one of them is neither banked nor proposed.
	done map[cryptoutil.Digest]struct{}
}

// equalPower is the default power assignment: one vote per replica.
func equalPower(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1
	}
	return p
}

func newNode(id int, power []float64, behavior func() Behavior, out func(message), onCommit func(Commit)) *node {
	var total float64
	for _, w := range power {
		total += w
	}
	return &node{
		id:        id,
		power:     power,
		total:     total,
		behavior:  behavior,
		out:       out,
		onCommit:  onCommit,
		viewVotes: make(map[uint64]*voterSet),
		rounds:    make(map[uint64]*liveRound),
		done:      make(map[cryptoutil.Digest]struct{}),
	}
}

// primaryOf maps a view to its primary replica: v mod the replica count.
func (n *node) primaryOf(v uint64) int { return int(v % uint64(len(n.power))) }

// quorate reports whether voters holding power w are a quorum: strictly
// more than 2/3 of the total, so any two quorums share more than 1/3 —
// more than the Byzantine power the protocol tolerates (Sec. II-C).
func (n *node) quorate(w float64) bool { return 3*w > 2*n.total }

func (n *node) hasPending() bool { return len(n.pending) > 0 }

func (n *node) addPending(d cryptoutil.Digest, value []byte) {
	for _, p := range n.pending {
		if p.digest == d {
			return
		}
	}
	n.pending = append(n.pending, pendingReq{digest: d, value: value})
}

func (n *node) removePending(d cryptoutil.Digest) {
	for i, p := range n.pending {
		if p.digest == d {
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			return
		}
	}
}

func (n *node) pendingValue(d cryptoutil.Digest) []byte {
	for _, p := range n.pending {
		if p.digest == d {
			return p.value
		}
	}
	return nil
}

// propose broadcasts a pre-prepare for value at the next sequence slot in
// the node's current view.
func (n *node) propose(d cryptoutil.Digest, value []byte) {
	n.maxSeq++
	n.out(message{kind: kindPrePrepare, from: n.id, view: n.view, seq: n.maxSeq, digest: d, value: value})
}

// suspect votes to rotate past the highest view this replica has voted
// for. Drivers call it when a view timeout elapses with requests pending
// and no commit progress.
func (n *node) suspect() {
	if n.behavior() == Silent {
		return
	}
	target := n.view + 1
	if n.votedView >= target {
		target = n.votedView + 1
	}
	// Cap escalation at one full rotation of candidates: past view+n every
	// primary has been proposed once, so higher targets only inflate the
	// view number during a quorum-less stall. Re-voting the capped target
	// is idempotent (votes dedup by sender) and doubles as a retransmit on
	// lossy links.
	if limit := n.view + uint64(len(n.power)); target > limit {
		target = limit
	}
	n.votedView = target
	n.out(message{kind: kindViewChange, from: n.id, view: target})
}

// installView enters view v: prune stale votes, notify the driver, and —
// when this node is the new primary — re-propose the orphaned backlog in
// arrival order.
func (n *node) installView(v uint64) {
	if v <= n.view {
		return
	}
	n.view = v
	if n.votedView < v {
		n.votedView = v
	}
	for past := range n.viewVotes {
		if past <= v {
			delete(n.viewVotes, past)
		}
	}
	if n.onView != nil {
		n.onView(v)
	}
	if n.id == n.primaryOf(v) {
		backlog := append([]pendingReq(nil), n.pending...)
		for _, p := range backlog {
			n.propose(p.digest, p.value)
		}
	}
}

// handleViewChange counts a rotation vote. A vote echo-joins once the
// voters hold more than 1/3 of the power — more than f, the paper's bound
// as a power fraction, so at least one honest replica timed out; it is
// also the catch-up path for a replica whose own timer lags — and installs
// at a full quorum. With equal power the echo rule is floor(n/3)+1 voters:
// the count rule (n-1)/3+1 it replaces asked for one voter fewer exactly
// when 3 divides n.
func (n *node) handleViewChange(m *message) {
	v := m.view
	if v <= n.view {
		return
	}
	vv := n.viewVotes[v]
	if vv == nil {
		vv = &voterSet{}
		n.viewVotes[v] = vv
	}
	vv.add(m.from, n.power[m.from])
	if 3*vv.power > n.total && n.votedView < v {
		n.votedView = v
		n.out(message{kind: kindViewChange, from: n.id, view: v})
	}
	if n.quorate(vv.power) {
		n.installView(v)
	}
}

// round returns the state of sequence slot seq, creating it on first sight.
func (n *node) round(seq uint64) *liveRound {
	if n.last != nil && n.lastSeq == seq {
		return n.last
	}
	rd, ok := n.rounds[seq]
	if !ok {
		if len(n.spare) == 0 {
			n.spare = make([]liveRound, roundChunk)
		}
		rd, n.spare = &n.spare[0], n.spare[1:]
		rd.proposals = rd.first[:0]
		n.rounds[seq] = rd
	}
	n.lastSeq, n.last = seq, rd
	return rd
}

// handle runs one message through the state machine. It reads m in place —
// wherever the driver keeps it — and keeps nothing of it but the value slice.
func (n *node) handle(m *message) {
	if n.behavior() == Silent {
		return
	}
	// Only a request has no sender; anything else claiming to come from
	// outside the replica set is dropped before it touches state.
	if m.kind != kindRequest && (m.from < 0 || m.from >= len(n.power)) {
		return
	}
	switch m.kind {
	case kindRequest:
		// Every replica banks the request so a later view's primary can
		// re-propose it; only the current view's primary proposes now. A
		// value this node has already committed is not requested twice.
		// The digest is newRequest's: a wrong one proposes a value every
		// replica then rejects — a stall, never a commit.
		if _, ok := n.done[m.digest]; ok {
			return
		}
		n.addPending(m.digest, m.value)
		if n.id == n.primaryOf(n.view) {
			n.propose(m.digest, m.value)
		}
	case kindPrePrepare:
		// Accept only from the claimed view's primary, never from a view
		// this node has already moved past, and only a proposal whose
		// digest is the hash of its value. A higher view is adopted: its
		// primary only proposes after a quorum installed it.
		if m.from != n.primaryOf(m.view) || m.view < n.view || digestOf(m.value) != m.digest {
			return
		}
		n.installView(m.view)
		if m.seq > n.maxSeq {
			n.maxSeq = m.seq
		}
		rd := n.round(m.seq)
		p := rd.proposal(m.digest)
		p.value = m.value
		switch n.behavior() {
		case Promiscuous:
			if !p.sentPrep {
				p.sentPrep = true
				n.out(message{kind: kindPrepare, from: n.id, seq: m.seq, digest: m.digest})
			}
			if !p.sentComm {
				p.sentComm = true
				n.out(message{kind: kindCommit, from: n.id, seq: m.seq, digest: m.digest})
			}
		default:
			if !rd.accepted {
				rd.accepted = true
				rd.digest = m.digest
				if !p.sentPrep {
					p.sentPrep = true
					n.out(message{kind: kindPrepare, from: n.id, seq: m.seq, digest: m.digest})
				}
			}
		}
		n.progress(m.seq, rd)
	case kindPrepare:
		rd := n.round(m.seq)
		rd.proposal(m.digest).prepares.add(m.from, n.power[m.from])
		n.progress(m.seq, rd)
	case kindCommit:
		rd := n.round(m.seq)
		p := rd.proposal(m.digest)
		p.commits.add(m.from, n.power[m.from])
		n.progress(m.seq, rd)
		n.certCommit(m.seq, rd, p)
	case kindViewChange:
		n.handleViewChange(m)
	}
}

// progress advances the honest pipeline for an accepted proposal: commit
// vote once the prepare quorum forms, local commit once the commit quorum
// does. Promiscuous replicas never accept, so they never reach here with
// accepted state — their endorsements happen directly in handle.
func (n *node) progress(seq uint64, rd *liveRound) {
	if !rd.accepted {
		return
	}
	p := rd.find(rd.digest)
	if !p.sentComm && n.quorate(p.prepares.power) {
		p.sentComm = true
		n.out(message{kind: kindCommit, from: n.id, seq: seq, digest: rd.digest})
	}
	if !rd.committed && n.quorate(p.commits.power) {
		n.commit(seq, rd, p)
	}
}

// commit closes the round on proposal p: report it, retire the request and
// remember the digest so a repeated request for it is dropped.
func (n *node) commit(seq uint64, rd *liveRound, p *proposal) {
	rd.committed = true
	n.committed++
	n.onCommit(Commit{Replica: n.id, Seq: seq, Value: p.value, digest: p.digest})
	n.removePending(p.digest)
	n.done[p.digest] = struct{}{}
}

// certCommit commits on a bare commit certificate: a quorum of commit
// votes for a digest whose value this replica knows (from the request
// backlog or an earlier pre-prepare) even though a lossy link ate the
// pre-prepare. Only the just-delivered digest's proposal p is checked —
// never a scan — keeping the path deterministic.
func (n *node) certCommit(seq uint64, rd *liveRound, p *proposal) {
	if rd.committed || !n.quorate(p.commits.power) {
		return
	}
	if p.value == nil {
		p.value = n.pendingValue(p.digest)
	}
	if p.value == nil {
		return
	}
	rd.accepted = true
	rd.digest = p.digest
	n.commit(seq, rd, p)
}
