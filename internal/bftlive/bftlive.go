// Package bftlive runs the three-phase BFT commit protocol. It is the
// repo's only BFT runtime: one replica state machine (node.go), whose
// quorums are fractions of voting power — strictly more than 2/3 to
// prepare, commit or install a view, so safety holds while Byzantine power
// stays at or below 1/3 (the paper's Sec. II-C) — driven by SimCluster
// (sim.go) over internal/simnet on the discrete-event scheduler's virtual
// clock: deterministic, byte-for-byte replayable, with Byzantine behaviors
// (Silent, Promiscuous) and primary equivocation, so internal/liveloop can
// cross-check the Monitor's predictions against observed safety and
// liveness and the experiments (X1, X6, P3) can show the bound on the wire.
// Power is equal by default; SimWithPower sets it per replica.
//
// Primaries rotate: a replica that sees pending requests make no commit
// progress within a view timeout votes to change views, a quorum of votes
// installs primary v mod n, and the new primary re-proposes the orphaned
// backlog. Rotation is opt-in (SimWithViewTimeout); the default remains
// the fixed primary.
//
// Who hashes: newRequest, once, where a value enters (Submit); every
// replica, once, where the protocol checks a proposal's digest against its
// value; EquivocateNext and CommittedBy, on the values a caller hands them.
// Everything else — backlogs, rounds, commits, the cluster's tallies —
// goes by the digest a message or Commit already carries. Who copies:
// newRequest, once; the slice is read-only and shared from then on.
//
// Who may recycle: SimCluster owns the storage of the messages it hands to
// node.handle, which reads them in place and keeps only the value slice.
// It reuses what it can see the end of (a fired self-delivery record) and
// never what it cannot (a message the network still holds is in a chunk
// that is filled once and left to the collector).
package bftlive

import "repro/internal/cryptoutil"

type msgKind uint8

const (
	kindRequest msgKind = iota
	kindPrePrepare
	kindPrepare
	kindCommit
	kindViewChange
)

type message struct {
	kind   msgKind
	from   int // the sending replica; unset on a request
	view   uint64
	seq    uint64
	digest cryptoutil.Digest
	// value is newRequest's copy of what the client submitted. Nobody
	// writes to it after that: requests, backlogs, proposals, rounds and
	// commits of every replica share the one slice.
	value []byte
}

// newRequest builds the client request for value. It is where a value
// enters the protocol: copied once, so the caller keeps its slice, and
// hashed once, so replicas bank and propose it under the digest it carries.
func newRequest(value []byte) message {
	v := append([]byte(nil), value...)
	return message{kind: kindRequest, digest: digestOf(v), value: v}
}

// Commit is a committed slot, as a replica reports it to its onCommit hook.
type Commit struct {
	Replica int
	Seq     uint64
	// Value is the slice every replica shares (see message.value): read it,
	// do not write to it.
	Value  []byte
	digest cryptoutil.Digest // of the proposal the replica committed
}
