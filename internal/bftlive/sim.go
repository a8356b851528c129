package bftlive

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// clientLatency is the fixed client→primary hop for Submit.
const clientLatency = time.Millisecond

// Violation is an observed agreement failure: two honest replicas
// committed conflicting values at the same sequence number.
type Violation struct {
	Seq      uint64
	Replicas [2]int
	Digests  [2]cryptoutil.Digest
}

// String renders the violation for trace details.
func (v *Violation) String() string {
	return fmt.Sprintf("seq=%d replicas=%d/%d digests=%s/%s",
		v.Seq, v.Replicas[0], v.Replicas[1], v.Digests[0].Short(), v.Digests[1].Short())
}

// SimCluster runs the live protocol over a simulated network on the
// discrete-event scheduler: deterministic delivery order, virtual time,
// no goroutines. Everything — including behavior changes, submissions and
// equivocation — must happen from scheduler callbacks or between runs, so
// a SimCluster run is byte-for-byte replayable from the scheduler seed.
//
// Node i registers as simnet.NodeID(i); replica 0 is the initial primary,
// and with SimWithViewTimeout set a stalled cluster rotates to primary
// v mod n.
type SimCluster struct {
	net         *simnet.Network
	n           int
	power       []uint64 // voting power units per replica; one slice for all nodes
	viewTimeout time.Duration
	nodes       []*node
	behaviors   []Behavior

	msgs     []message       // the current chunk of broadcast storage; see store
	freeSelf []*selfDelivery // fired self-deliveries, reused by later broadcasts

	honestCommits int
	committedBy   map[cryptoutil.Digest]int // value digest -> count of honest replicas committed
	agreed        map[uint64]simCommit
	violation     *Violation

	maxView       uint64
	viewChanges   int
	lastCommitted []int // per-replica commit counts at the last timeout check
}

type simCommit struct {
	replica int
	digest  cryptoutil.Digest
}

// SimOption configures a SimCluster at construction time.
type SimOption func(*SimCluster) error

// SimWithViewTimeout enables primary rotation on the virtual clock: every
// d, replicas with pending requests and no commit progress since the last
// check vote to change views. The default (0) keeps the fixed primary.
func SimWithViewTimeout(d time.Duration) SimOption {
	return func(s *SimCluster) error {
		if d < 0 {
			return fmt.Errorf("bftlive: negative view timeout %v", d)
		}
		s.viewTimeout = d
		return nil
	}
}

// powerUnit is how many integer units one unit of SimWithPower weight is.
const powerUnit = 1e9

// maxTotalUnits bounds the summed power units so that 3·total, the largest
// product a quorum or echo test forms, fits in a uint64.
const maxTotalUnits = math.MaxUint64 / 3

// SimWithPower gives replica i voting power w[i]: quorums, and with them
// the 1/3 safety bound, are then fractions of the summed power rather than
// of the replica count (Sec. II-A's "voting power"). w must hold one
// positive, finite entry per replica. The default is equal power.
//
// NewSimCluster converts each weight once to math.Round(w[i]·1e9) integer
// units (nearest billionth, halves away from zero), so a weight with at
// most nine decimals is exact and every quorum verdict is exact integer
// arithmetic, independent of vote arrival order. A weight that rounds to
// 0 units, or a total whose triple overflows a uint64, is an error.
func SimWithPower(w []float64) SimOption {
	return func(s *SimCluster) error {
		if len(w) != s.n {
			return fmt.Errorf("bftlive: %d power entries for %d replicas", len(w), s.n)
		}
		s.power = make([]uint64, len(w))
		var total uint64
		for i, p := range w {
			if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("bftlive: invalid power %v for replica %d", p, i)
			}
			u := math.Round(p * powerUnit)
			if u == 0 {
				return fmt.Errorf("bftlive: power %v for replica %d rounds to 0 units of 1e-9", p, i)
			}
			if u > maxTotalUnits || uint64(u) > maxTotalUnits-total {
				return fmt.Errorf("bftlive: power %v for replica %d overflows the summed power", p, i)
			}
			s.power[i] = uint64(u)
			total += s.power[i]
		}
		return nil
	}
}

// NewSimCluster registers n replicas (n >= 4) on the network. All replicas
// start Honest.
func NewSimCluster(net *simnet.Network, n int, opts ...SimOption) (*SimCluster, error) {
	if net == nil {
		return nil, errors.New("bftlive: nil network")
	}
	if n < 4 {
		return nil, fmt.Errorf("bftlive: need at least 4 replicas, got %d", n)
	}
	s := &SimCluster{
		net:           net,
		n:             n,
		behaviors:     make([]Behavior, n),
		committedBy:   make(map[cryptoutil.Digest]int),
		agreed:        make(map[uint64]simCommit),
		lastCommitted: make([]int, n),
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("bftlive: nil option")
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.power == nil {
		s.power = equalPower(n)
	}
	for i := 0; i < n; i++ {
		i := i
		nd := newNode(i, s.power,
			func() Behavior { return s.behaviors[i] },
			func(m message) { s.broadcast(i, m) },
			func(c Commit) { s.onCommit(i, c) })
		nd.onView = func(v uint64) {
			if v > s.maxView {
				s.maxView = v
				s.viewChanges++
			}
		}
		s.nodes = append(s.nodes, nd)
		if err := net.Register(simnet.NodeID(i), simnet.HandlerFunc(func(from simnet.NodeID, msg any) {
			if m, ok := msg.(*message); ok {
				nd.handle(m)
			}
		})); err != nil {
			return nil, err
		}
	}
	if s.viewTimeout > 0 {
		// Every takes an absolute start instant: a cluster may come up
		// mid-run (the live harness boots it at the scenario's StartAt).
		start := net.Scheduler().Now() + s.viewTimeout
		if _, err := net.Scheduler().Every(start, s.viewTimeout, "view timeout", s.checkProgress); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkProgress is the cluster-wide rotation timer: every honest replica
// that is not crashed on the wire, has requests pending and made no commit
// progress since the last check votes to change views. Iteration is in
// replica order from a single callback, so all stalled replicas target the
// same next view in the same scheduler round.
func (s *SimCluster) checkProgress() {
	for i, nd := range s.nodes {
		if s.behaviors[i] != Honest || s.net.IsDown(simnet.NodeID(i)) {
			s.lastCommitted[i] = nd.committed
			continue
		}
		if nd.hasPending() && nd.committed == s.lastCommitted[i] {
			nd.suspect()
		}
		s.lastCommitted[i] = nd.committed
	}
}

// View returns the highest view any replica has installed.
func (s *SimCluster) View() uint64 { return s.maxView }

// Primary returns the current primary: the highest installed view mod n.
func (s *SimCluster) Primary() int { return int(s.maxView % uint64(s.n)) }

// ViewChanges returns how many primary rotations the cluster performed.
func (s *SimCluster) ViewChanges() int { return s.viewChanges }

// N returns the replica count.
func (s *SimCluster) N() int { return s.n }

// Quorum returns the vote quorum of an equal-power cluster as a replica
// count: strictly more than 2n/3. Under SimWithPower a quorum is a power
// fraction and no single count describes it.
func (s *SimCluster) Quorum() int { return 2*s.n/3 + 1 }

// msgChunk is how many messages the cluster carves from one allocation.
const msgChunk = 64

// store copies m into cluster storage and returns where it lives. The
// network holds that pointer until the last destination fires or is
// dropped, an end the cluster cannot see, so a chunk is filled once and
// never reused: it dies with the last reference into it. Storage whose end
// the cluster does see — a self-delivery is dead once fired — is recycled
// instead (freeSelf).
func (s *SimCluster) store(m message) *message {
	if len(s.msgs) == cap(s.msgs) {
		s.msgs = make([]message, 0, msgChunk)
	}
	s.msgs = append(s.msgs, m)
	return &s.msgs[len(s.msgs)-1]
}

// broadcast sends to every other replica over the network and self-delivers
// on the next scheduler step, so a vote counts itself without reentrant
// handling. Both read the one stored message.
func (s *SimCluster) broadcast(from int, m message) {
	p := s.store(m)
	s.net.Broadcast(simnet.NodeID(from), p)
	var d *selfDelivery
	if last := len(s.freeSelf) - 1; last >= 0 {
		d, s.freeSelf = s.freeSelf[last], s.freeSelf[:last]
	} else {
		d = &selfDelivery{s: s}
	}
	d.to, d.m = from, p
	s.net.Scheduler().Schedule(&d.ev, 0, "self-deliver", d)
}

// selfDelivery is a replica's own broadcast on its way back to it.
type selfDelivery struct {
	ev sim.Event
	s  *SimCluster
	to int
	m  *message
}

// Fire implements sim.Action. The record is back on the free list before
// the handler runs — the scheduler is done with a fired event, and the
// message is not the record's — so the broadcast a vote provokes reuses it.
func (d *selfDelivery) Fire() {
	nd, m := d.s.nodes[d.to], d.m
	d.m = nil
	d.s.freeSelf = append(d.s.freeSelf, d)
	nd.handle(m)
}

// Submit schedules a client value for every replica after the client hop:
// the current primary proposes it, the rest bank it for re-proposal after
// a view change. Delivery is by direct handler call in replica order — no
// network traffic, so RNG consumption matches the fixed-primary runtime.
// Call from a scheduler callback (or before Run).
func (s *SimCluster) Submit(value []byte) {
	m := newRequest(value)
	s.net.Scheduler().After(clientLatency, "client request", func() {
		for _, nd := range s.nodes {
			nd.handle(&m)
		}
	})
}

// SetBehavior switches a replica's conduct from the next delivery on.
func (s *SimCluster) SetBehavior(i int, b Behavior) error {
	if i < 0 || i >= s.n {
		return fmt.Errorf("bftlive: replica %d out of range", i)
	}
	if b > Promiscuous {
		return fmt.Errorf("bftlive: unknown behavior %d", b)
	}
	s.behaviors[i] = b
	return nil
}

// BehaviorOf reports a replica's current behavior.
func (s *SimCluster) BehaviorOf(i int) Behavior {
	if i < 0 || i >= s.n {
		return Silent
	}
	return s.behaviors[i]
}

// EquivocateNext makes the current view's (non-honest) primary propose
// value a to half the honest replicas and value b to the rest at the next
// sequence number, showing both proposals to every Byzantine colluder.
// With Promiscuous colluders carrying strictly more than 1/3 of the
// voting power, both conflicting quorums assemble and the violation surfaces
// on Violation().
func (s *SimCluster) EquivocateNext(a, b []byte) error {
	p := s.Primary()
	nd := s.nodes[p]
	if s.behaviors[p] == Honest {
		return errors.New("bftlive: equivocation requires a non-honest primary")
	}
	if nd.primaryOf(nd.view) != p {
		return errors.New("bftlive: view change in flight; primary unsettled")
	}
	nd.maxSeq++
	seq := nd.maxSeq
	ma := s.store(message{kind: kindPrePrepare, from: p, view: nd.view, seq: seq, digest: digestOf(a), value: append([]byte(nil), a...)})
	mb := s.store(message{kind: kindPrePrepare, from: p, view: nd.view, seq: seq, digest: digestOf(b), value: append([]byte(nil), b...)})
	var honest []int
	for i := 0; i < s.n; i++ {
		if i != p && s.behaviors[i] == Honest {
			honest = append(honest, i)
		}
	}
	half := (len(honest) + 1) / 2
	for k, i := range honest {
		m := ma
		if k >= half {
			m = mb
		}
		s.net.Send(simnet.NodeID(p), simnet.NodeID(i), m)
	}
	for i := 0; i < s.n; i++ {
		if i != p && s.behaviors[i] == Promiscuous {
			s.net.Send(simnet.NodeID(p), simnet.NodeID(i), ma)
			s.net.Send(simnet.NodeID(p), simnet.NodeID(i), mb)
		}
	}
	// The primary endorses both of its own proposals too.
	s.net.Scheduler().After(0, "self-deliver", func() {
		nd.handle(ma)
		nd.handle(mb)
	})
	return nil
}

// onCommit records honest commit events and checks agreement across them.
func (s *SimCluster) onCommit(i int, c Commit) {
	if s.behaviors[i] != Honest {
		return
	}
	s.honestCommits++
	d := c.digest
	s.committedBy[d]++
	prev, ok := s.agreed[c.Seq]
	if !ok {
		s.agreed[c.Seq] = simCommit{replica: i, digest: d}
		return
	}
	if prev.digest != d && s.violation == nil {
		s.violation = &Violation{
			Seq:      c.Seq,
			Replicas: [2]int{prev.replica, i},
			Digests:  [2]cryptoutil.Digest{prev.digest, d},
		}
	}
}

// CommitCount returns the total number of honest commit events observed.
func (s *SimCluster) CommitCount() int { return s.honestCommits }

// CommittedBy returns how many replicas committed the value while honest.
func (s *SimCluster) CommittedBy(value []byte) int {
	return s.committedBy[digestOf(value)]
}

// Violation returns the first observed agreement violation, or nil.
func (s *SimCluster) Violation() *Violation { return s.violation }
