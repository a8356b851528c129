// Package bftlive runs the three-phase BFT commit protocol. It is the
// repo's only BFT runtime: one replica state machine (node.go), whose
// quorums are fractions of voting power — strictly more than 2/3 to
// prepare, commit or install a view, so safety holds while Byzantine power
// stays at or below 1/3 (the paper's Sec. II-C) — under two transports:
//
//   - Cluster: real concurrency — one goroutine per replica, in-memory
//     channel transport, context-based lifecycle and clean shutdown. Its
//     tests run under -race and demonstrate the protocol logic is sound
//     under the Go memory model.
//   - SimCluster (sim.go): the same protocol over internal/simnet on the
//     discrete-event scheduler's virtual clock — deterministic, byte-for-
//     byte replayable, with Byzantine behaviors (Silent, Promiscuous) and
//     primary equivocation, so internal/liveloop can cross-check the
//     Monitor's predictions against observed safety and liveness and the
//     experiments (X1, X6, P3) can show the bound on the wire. Power is
//     equal by default; SimWithPower sets it per replica.
//
// Both transports rotate primaries: a replica that sees pending requests
// make no commit progress within a view timeout votes to change views, a
// quorum of votes installs primary v mod n, and the new primary
// re-proposes the orphaned backlog. Rotation is opt-in (WithViewTimeout /
// SimWithViewTimeout); the default remains the fixed-primary runtime.
//
// Who hashes: newRequest, once, where a value enters (Submit); every
// replica, once, where the protocol checks a proposal's digest against its
// value; EquivocateNext and CommittedBy, on the values a caller hands them.
// Everything else — backlogs, rounds, commits, the cluster's tallies —
// goes by the digest a message or Commit already carries. Who copies:
// newRequest, once; the slice is read-only and shared from then on.
//
// Who may recycle: a driver owns the storage of the messages it hands to
// node.handle, which reads them in place and keeps only the value slice.
// SimCluster reuses what it can see the end of (a fired self-delivery
// record) and never what it cannot (a message the network still holds is
// in a chunk that is filled once and left to the collector).
package bftlive

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cryptoutil"
)

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

// Commit is a committed slot reported on the cluster's commit stream.
type Commit struct {
	Replica int
	Seq     uint64
	// Value is the slice every replica shares (see message.value): read it,
	// do not write to it.
	Value  []byte
	digest cryptoutil.Digest // of the proposal the replica committed
}

// Cluster is a set of live replicas connected by channels.
type Cluster struct {
	n           int
	viewTimeout time.Duration
	inboxes     []chan message
	commits     chan Commit

	mu          sync.Mutex
	crashed     map[int]bool
	maxView     uint64
	viewChanges int

	wg      sync.WaitGroup
	started bool
	cancel  context.CancelFunc
}

// Option configures a Cluster at construction time.
type Option func(*clusterConfig) error

type clusterConfig struct {
	inboxCapacity  int
	commitCapacity int
	viewTimeout    time.Duration
}

// WithInboxCapacity sets each replica's inbox buffer (default 4096).
// Messages beyond a full inbox are dropped, datagram-style; quorum
// redundancy absorbs the loss.
func WithInboxCapacity(n int) Option {
	return func(c *clusterConfig) error {
		if n <= 0 {
			return fmt.Errorf("bftlive: non-positive inbox capacity %d", n)
		}
		c.inboxCapacity = n
		return nil
	}
}

// WithCommitCapacity sets the commit-stream buffer (default 1024). Commit
// events beyond a full buffer are dropped; size it for the slot count the
// consumer expects to observe.
func WithCommitCapacity(n int) Option {
	return func(c *clusterConfig) error {
		if n <= 0 {
			return fmt.Errorf("bftlive: non-positive commit capacity %d", n)
		}
		c.commitCapacity = n
		return nil
	}
}

// WithViewTimeout enables primary rotation: a replica that sees pending
// requests make no commit progress for d votes to change views, and a
// quorum of votes installs primary v mod n. The default (0) disables
// rotation, preserving the fixed-primary runtime.
func WithViewTimeout(d time.Duration) Option {
	return func(c *clusterConfig) error {
		if d < 0 {
			return fmt.Errorf("bftlive: negative view timeout %v", d)
		}
		c.viewTimeout = d
		return nil
	}
}

// New creates a cluster of n replicas (n >= 4). Commit events from every
// replica are delivered on Commits(). Buffer sizes are functional options:
//
//	cl, err := bftlive.New(7, bftlive.WithCommitCapacity(4096))
func New(n int, opts ...Option) (*Cluster, error) {
	if n < 4 {
		return nil, fmt.Errorf("bftlive: need at least 4 replicas, got %d", n)
	}
	cfg := clusterConfig{inboxCapacity: 4096, commitCapacity: 1024}
	for _, opt := range opts {
		if opt == nil {
			return nil, errors.New("bftlive: nil option")
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	c := &Cluster{
		n:           n,
		viewTimeout: cfg.viewTimeout,
		inboxes:     make([]chan message, n),
		commits:     make(chan Commit, cfg.commitCapacity),
		crashed:     make(map[int]bool),
	}
	for i := range c.inboxes {
		c.inboxes[i] = make(chan message, cfg.inboxCapacity)
	}
	return c, nil
}

// Commits returns the stream of commit events (one per replica per slot).
func (c *Cluster) Commits() <-chan Commit { return c.commits }

// Crash marks a replica as crashed, before Start or mid-run: it drops all
// input from then on. Any replica may crash, including the current
// primary — with WithViewTimeout set, the survivors vote the next view in
// and its primary re-proposes the orphaned backlog. At most
// floor((n-1)/3) replicas may be crashed for liveness.
func (c *Cluster) Crash(id int) error {
	if id < 0 || id >= c.n {
		return fmt.Errorf("bftlive: replica %d out of range", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed[id] = true
	return nil
}

// View returns the highest view any replica has installed.
func (c *Cluster) View() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxView
}

// ViewChanges returns how many primary rotations the cluster performed.
func (c *Cluster) ViewChanges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewChanges
}

// noteView records a replica installing view v.
func (c *Cluster) noteView(v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v > c.maxView {
		c.maxView = v
		c.viewChanges++
	}
}

func (c *Cluster) isCrashed(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed[id]
}

// Start launches one goroutine per replica. The cluster stops when ctx is
// cancelled; Stop blocks until all replica goroutines exit.
func (c *Cluster) Start(ctx context.Context) error {
	if c.started {
		return errors.New("bftlive: already started")
	}
	c.started = true
	ctx, c.cancel = context.WithCancel(ctx)
	power := equalPower(c.n) // one vote per replica: a quorum is more than 2n/3 of them
	for i := 0; i < c.n; i++ {
		nd := newNode(i, power,
			func() Behavior { return Honest }, // crashes drop input in run()
			c.broadcast,
			func(ev Commit) {
				select {
				case c.commits <- ev:
				default:
				}
			})
		nd.onView = c.noteView
		c.wg.Add(1)
		go func(id int, nd *node) {
			defer c.wg.Done()
			c.run(ctx, id, nd)
		}(i, nd)
	}
	return nil
}

// run is one replica's inbox loop; all node state is confined to it. With
// a view timeout configured, a ticker doubles as the rotation timer: no
// commit progress across a full period while requests are pending means
// the replica votes to change views.
func (c *Cluster) run(ctx context.Context, id int, nd *node) {
	inbox := c.inboxes[id]
	var tick <-chan time.Time
	if c.viewTimeout > 0 {
		t := time.NewTicker(c.viewTimeout)
		defer t.Stop()
		tick = t.C
	}
	lastCommitted := 0
	for {
		select {
		case <-ctx.Done():
			return
		case m := <-inbox:
			if c.isCrashed(id) {
				continue
			}
			nd.handle(&m)
		case <-tick:
			if c.isCrashed(id) {
				continue
			}
			if nd.hasPending() && nd.committed == lastCommitted {
				nd.suspect()
			}
			lastCommitted = nd.committed
		}
	}
}

// Stop cancels the cluster's context and waits for all replicas to exit.
// It is safe to call multiple times.
func (c *Cluster) Stop() {
	if c.cancel != nil {
		c.cancel()
	}
	c.wg.Wait()
}

// Submit injects a client value to every replica: the current view's
// primary proposes it, and the rest bank it so a later view's primary can
// re-propose if the proposal dies with a crashed primary.
func (c *Cluster) Submit(value []byte) {
	c.broadcast(newRequest(value))
}

// send delivers to one inbox, dropping when the inbox is full (backpressure
// by loss, like a datagram network; quorum redundancy absorbs it).
func (c *Cluster) send(to int, m message) {
	select {
	case c.inboxes[to] <- m:
	default:
	}
}

// broadcast delivers to every inbox including the sender's, so a replica's
// own vote counts toward its quorums.
func (c *Cluster) broadcast(m message) {
	for i := 0; i < c.n; i++ {
		c.send(i, m)
	}
}
