package bft

import (
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Behavior selects how a replica acts. The Byzantine behaviours implement
// the paper's adversary: a compromised replica "can behave arbitrarily";
// the two concrete strategies here are the ones that matter for safety and
// liveness experiments.
type Behavior int

// Replica behaviours.
const (
	// Honest follows the protocol.
	Honest Behavior = iota
	// Silent never sends protocol messages (Byzantine mutism / crash).
	Silent
	// Promiscuous votes prepare and commit for every digest it observes,
	// regardless of conflicts — the vote-duplication half of the classic
	// equivocation attack. Harmless while Byzantine power <= 1/3 of total;
	// past that bound it lets an equivocating primary form two conflicting
	// commit certificates.
	Promiscuous
)

// String names the behaviour.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case Silent:
		return "silent"
	case Promiscuous:
		return "promiscuous"
	default:
		return "behavior(?)"
	}
}

// round tracks one (view, seq) consensus slot at one replica.
type round struct {
	view           View
	seq            Seq
	acceptedDigest cryptoutil.Digest // digest of the pre-prepare this replica accepted
	acceptedValue  []byte
	accepted       bool
	prepareVoters  map[cryptoutil.Digest]map[simnet.NodeID]bool
	commitVoters   map[cryptoutil.Digest]map[simnet.NodeID]bool
	sentPrepare    map[cryptoutil.Digest]bool
	sentCommit     map[cryptoutil.Digest]bool
	prepared       bool
	committed      bool
}

func newRound(v View, s Seq) *round {
	return &round{
		view:          v,
		seq:           s,
		prepareVoters: make(map[cryptoutil.Digest]map[simnet.NodeID]bool),
		commitVoters:  make(map[cryptoutil.Digest]map[simnet.NodeID]bool),
		sentPrepare:   make(map[cryptoutil.Digest]bool),
		sentCommit:    make(map[cryptoutil.Digest]bool),
	}
}

type roundKey struct {
	view View
	seq  Seq
}

// Replica is one BFT replica. All methods run on the scheduler goroutine.
type Replica struct {
	id       simnet.NodeID
	index    int
	weight   float64
	behavior Behavior
	cluster  *Cluster

	view         View
	nextSeq      Seq
	rounds       map[roundKey]*round
	committedAt  map[Seq]cryptoutil.Digest
	committedVal map[Seq][]byte
	lastExec     Seq

	pending      [][]byte // client values awaiting commitment
	vcVotes      map[View]map[simnet.NodeID]viewChange
	vcTimer      *sim.Event
	vcBackoff    time.Duration
	vcTarget     View // highest view this replica has voted to enter
	inViewChange bool

	// prepared certificate carried into view changes
	hasPrepared    bool
	preparedSeq    Seq
	preparedDigest cryptoutil.Digest
	preparedValue  []byte
}

// ID returns the replica's network id.
func (r *Replica) ID() simnet.NodeID { return r.id }

// Weight returns the replica's voting power.
func (r *Replica) Weight() float64 { return r.weight }

// Behavior returns the replica's current behaviour.
func (r *Replica) Behavior() Behavior { return r.behavior }

// View returns the replica's current view.
func (r *Replica) View() View { return r.view }

// LastExecuted returns the highest contiguously executed sequence number.
func (r *Replica) LastExecuted() Seq { return r.lastExec }

// Committed returns the committed values in sequence order up to the last
// contiguously executed slot.
func (r *Replica) Committed() [][]byte {
	out := make([][]byte, 0, r.lastExec)
	for s := Seq(1); s <= r.lastExec; s++ {
		out = append(out, r.committedVal[s])
	}
	return out
}

// CommittedAt returns the digest committed at a slot, if any.
func (r *Replica) CommittedAt(s Seq) (cryptoutil.Digest, bool) {
	d, ok := r.committedAt[s]
	return d, ok
}

func (r *Replica) isPrimary() bool {
	return r.cluster.primaryIndex(r.view) == r.index
}

// HandleMessage implements simnet.Handler.
func (r *Replica) HandleMessage(from simnet.NodeID, msg any) {
	if r.behavior == Silent {
		return
	}
	switch m := msg.(type) {
	case request:
		r.onRequest(m)
	case prePrepare:
		r.onPrePrepare(from, m)
	case prepare:
		r.onPrepare(from, m)
	case commitMsg:
		r.onCommit(from, m)
	case viewChange:
		r.onViewChange(from, m)
	case newView:
		r.onNewView(from, m)
	}
}

func (r *Replica) onRequest(m request) {
	if r.alreadyCommittedValue(m.Value) {
		return
	}
	r.pending = append(r.pending, m.Value)
	if r.isPrimary() && !r.inViewChange {
		r.propose(m.Value)
	}
	r.armTimer()
}

func (r *Replica) alreadyCommittedValue(value []byte) bool {
	d := valueDigest(value)
	for _, got := range r.committedAt {
		if got == d {
			return true
		}
	}
	return false
}

// propose assigns the next sequence number and broadcasts a pre-prepare.
func (r *Replica) propose(value []byte) {
	r.nextSeq++
	pp := prePrepare{View: r.view, Seq: r.nextSeq, Digest: valueDigest(value), Value: value}
	r.cluster.broadcast(r.id, pp)
}

func (r *Replica) getRound(v View, s Seq) *round {
	k := roundKey{view: v, seq: s}
	rd, ok := r.rounds[k]
	if !ok {
		rd = newRound(v, s)
		r.rounds[k] = rd
	}
	return rd
}

func (r *Replica) onPrePrepare(from simnet.NodeID, m prePrepare) {
	if from != r.cluster.primaryID(m.View) {
		return // only the view's primary may propose
	}
	if m.View < r.view {
		return
	}
	if valueDigest(m.Value) != m.Digest {
		return // malformed proposal
	}
	rd := r.getRound(m.View, m.Seq)
	switch r.behavior {
	case Honest:
		if rd.accepted {
			return // at most one accepted pre-prepare per (view, seq)
		}
		rd.accepted = true
		rd.acceptedDigest = m.Digest
		rd.acceptedValue = m.Value
		r.votePrepare(rd, m.Digest)
	case Promiscuous:
		// Accept (and remember a value for) every proposal; vote for all.
		if !rd.accepted {
			rd.accepted = true
			rd.acceptedDigest = m.Digest
			rd.acceptedValue = m.Value
		}
		r.votePrepare(rd, m.Digest)
	}
	// Remember the value so a conflicting digest can still be executed if
	// it gathers a quorum (needed to surface safety violations).
	r.cluster.rememberValue(m.Digest, m.Value)
}

func (r *Replica) votePrepare(rd *round, d cryptoutil.Digest) {
	if rd.sentPrepare[d] {
		return
	}
	rd.sentPrepare[d] = true
	r.recordPrepare(r.id, rd, d)
	r.cluster.broadcast(r.id, prepare{View: rd.view, Seq: rd.seq, Digest: d})
}

func (r *Replica) voteCommit(rd *round, d cryptoutil.Digest) {
	if rd.sentCommit[d] {
		return
	}
	rd.sentCommit[d] = true
	r.recordCommit(r.id, rd, d)
	r.cluster.broadcast(r.id, commitMsg{View: rd.view, Seq: rd.seq, Digest: d})
}

func (r *Replica) onPrepare(from simnet.NodeID, m prepare) {
	rd := r.getRound(m.View, m.Seq)
	r.recordPrepare(from, rd, m.Digest)
	if r.behavior == Promiscuous {
		// Echo votes for any digest with any support.
		r.votePrepare(rd, m.Digest)
	}
}

func (r *Replica) onCommit(from simnet.NodeID, m commitMsg) {
	rd := r.getRound(m.View, m.Seq)
	r.recordCommit(from, rd, m.Digest)
	if r.behavior == Promiscuous {
		r.voteCommit(rd, m.Digest)
	}
}

func (r *Replica) recordPrepare(from simnet.NodeID, rd *round, d cryptoutil.Digest) {
	voters := rd.prepareVoters[d]
	if voters == nil {
		voters = make(map[simnet.NodeID]bool)
		rd.prepareVoters[d] = voters
	}
	if voters[from] {
		return
	}
	voters[from] = true
	r.checkPrepared(rd)
}

func (r *Replica) recordCommit(from simnet.NodeID, rd *round, d cryptoutil.Digest) {
	voters := rd.commitVoters[d]
	if voters == nil {
		voters = make(map[simnet.NodeID]bool)
		rd.commitVoters[d] = voters
	}
	if voters[from] {
		return
	}
	voters[from] = true
	r.checkCommitted(rd)
}

// checkPrepared moves the round to prepared when the accepted digest has a
// prepare quorum, then broadcasts the commit vote.
func (r *Replica) checkPrepared(rd *round) {
	if rd.prepared || !rd.accepted {
		return
	}
	if !r.cluster.isQuorum(r.voterWeight(rd.prepareVoters[rd.acceptedDigest])) {
		return
	}
	rd.prepared = true
	if !rd.committed && (!r.hasPrepared || rd.seq >= r.preparedSeq) {
		r.hasPrepared = true
		r.preparedSeq = rd.seq
		r.preparedDigest = rd.acceptedDigest
		r.preparedValue = rd.acceptedValue
	}
	r.voteCommit(rd, rd.acceptedDigest)
}

// checkCommitted fires when any digest in the round has a commit quorum.
// Honest replicas only ever send commits for their accepted digest, but
// they must still *detect* quorums for other digests formed by Byzantine
// double votes: that detection is exactly how a real deployment would
// observe the safety violation.
func (r *Replica) checkCommitted(rd *round) {
	if rd.committed {
		return
	}
	for d, voters := range rd.commitVoters {
		if !r.cluster.isQuorum(r.voterWeight(voters)) {
			continue
		}
		// For honest replicas the executable digest must be the accepted
		// one; a quorum on a different digest can only happen when the
		// adversary exceeds the tolerance, and executing it is precisely
		// the safety failure the experiments measure.
		if r.behavior == Honest && rd.accepted && d != rd.acceptedDigest {
			continue
		}
		rd.committed = true
		value, ok := r.cluster.valueOf(d)
		if !ok && rd.accepted && d == rd.acceptedDigest {
			value = rd.acceptedValue
			ok = true
		}
		if !ok {
			return // quorum on a digest whose value we never saw
		}
		r.commitSlot(rd.seq, d, value)
		return
	}
}

func (r *Replica) commitSlot(s Seq, d cryptoutil.Digest, value []byte) {
	if prev, dup := r.committedAt[s]; dup {
		if prev != d {
			// Intra-replica conflict: report and keep the first.
			r.cluster.reportConflict(r, s, prev, d)
		}
		return
	}
	r.committedAt[s] = d
	r.committedVal[s] = value
	r.cluster.onCommit(r, s, d, value)
	r.dropPending(value)
	r.advanceExecution()
	r.armTimer()
}

func (r *Replica) dropPending(value []byte) {
	d := valueDigest(value)
	kept := r.pending[:0]
	for _, v := range r.pending {
		if valueDigest(v) != d {
			kept = append(kept, v)
		}
	}
	r.pending = kept
}

func (r *Replica) advanceExecution() {
	for {
		if _, ok := r.committedAt[r.lastExec+1]; !ok {
			return
		}
		r.lastExec++
	}
}

func (r *Replica) voterWeight(voters map[simnet.NodeID]bool) float64 {
	var w float64
	for id := range voters {
		w += r.cluster.weightOf(id)
	}
	return w
}

// --- view changes ---

func (r *Replica) armTimer() {
	if len(r.pending) == 0 {
		if r.vcTimer != nil {
			r.vcTimer.Stop()
			r.vcTimer = nil
		}
		return
	}
	if r.vcTimer != nil {
		return // already armed
	}
	timeout := r.cluster.cfg.Timeout + r.vcBackoff
	r.vcTimer = r.cluster.sched().After(timeout, "bft/view-change-timer", func() {
		r.vcTimer = nil
		// Escalate past the highest view already voted for, so repeated
		// primary failures walk the view number forward.
		r.startViewChange(max(r.view, r.vcTarget) + 1)
	})
}

func (r *Replica) startViewChange(target View) {
	if r.behavior == Silent {
		return
	}
	if target <= r.view {
		target = r.view + 1
	}
	if target <= r.vcTarget {
		return // already voted for this view or higher
	}
	r.vcTarget = target
	r.inViewChange = true
	r.vcBackoff = r.vcBackoff*2 + r.cluster.cfg.Timeout/4
	vc := viewChange{
		NewView:        target,
		HasPrepared:    r.hasPrepared,
		PreparedSeq:    r.preparedSeq,
		PreparedDigest: r.preparedDigest,
		PreparedValue:  r.preparedValue,
	}
	r.cluster.broadcast(r.id, vc)
	// Re-arm so repeated primary failures escalate the view further.
	r.armTimer()
}

func (r *Replica) onViewChange(from simnet.NodeID, m viewChange) {
	if m.NewView <= r.view {
		return
	}
	votes := r.vcVotes[m.NewView]
	if votes == nil {
		votes = make(map[simnet.NodeID]viewChange)
		r.vcVotes[m.NewView] = votes
	}
	if _, dup := votes[from]; dup {
		return
	}
	votes[from] = m
	var w float64
	for id := range votes {
		w += r.cluster.weightOf(id)
	}
	// Join the view change once more than f weight demands it (the PBFT
	// catch-up rule): a correct replica cannot be left behind by a quorum.
	if w > r.cluster.total/3 && m.NewView > r.vcTarget {
		r.startViewChange(m.NewView)
	}
	if !r.cluster.isQuorum(w) {
		return
	}
	// Quorum for the new view.
	if r.cluster.primaryIndex(m.NewView) == r.index {
		r.becomePrimary(m.NewView, votes)
	}
}

// becomePrimary installs the new view at the elected primary and
// re-proposes: first the highest prepared certificate among the view-change
// votes (PBFT's safety rule), then every pending client value.
func (r *Replica) becomePrimary(v View, votes map[simnet.NodeID]viewChange) {
	if v <= r.view {
		return
	}
	r.view = v
	r.inViewChange = false
	r.cluster.broadcast(r.id, newView{View: v})

	var best *viewChange
	ids := make([]simnet.NodeID, 0, len(votes))
	for id := range votes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		vc := votes[id]
		if vc.HasPrepared && (best == nil || vc.PreparedSeq > best.PreparedSeq) {
			vcCopy := vc
			best = &vcCopy
		}
	}
	if r.hasPrepared && (best == nil || r.preparedSeq > best.PreparedSeq) {
		best = &viewChange{
			HasPrepared: true, PreparedSeq: r.preparedSeq,
			PreparedDigest: r.preparedDigest, PreparedValue: r.preparedValue,
		}
	}
	if best != nil && best.PreparedSeq > r.nextSeq {
		r.nextSeq = best.PreparedSeq
	}
	if r.nextSeq < r.lastExec {
		r.nextSeq = r.lastExec
	}
	if best != nil {
		if _, done := r.committedAt[best.PreparedSeq]; !done {
			pp := prePrepare{View: v, Seq: best.PreparedSeq, Digest: best.PreparedDigest, Value: best.PreparedValue}
			r.cluster.broadcast(r.id, pp)
		}
	}
	for _, value := range r.pending {
		if best != nil && valueDigest(value) == best.PreparedDigest {
			continue // already re-proposed with its certificate
		}
		r.propose(value)
	}
}

func (r *Replica) onNewView(from simnet.NodeID, m newView) {
	if m.View <= r.view {
		return
	}
	if from != r.cluster.primaryID(m.View) {
		return
	}
	r.view = m.View
	r.inViewChange = false
	r.vcBackoff = 0
	if r.vcTimer != nil {
		r.vcTimer.Stop()
		r.vcTimer = nil
	}
	r.armTimer()
}
