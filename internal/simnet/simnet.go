// Package simnet provides a simulated message-passing network on top of the
// internal/sim discrete-event scheduler. The consensus runtimes (internal/bftlive,
// internal/nakamoto) exchange messages through a Network, which models
// per-link latency, message loss, node crashes, network partitions and
// runtime-mutable per-link fault models (drop, extra latency, jitter,
// duplication, reordering — see Fault), and counts traffic per node — the message-overhead measurements behind
// Proposition 3's performance/reliability trade-off come from these
// counters.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/sim"
)

// NodeID identifies a node on the network. Ids are small non-negative
// integers: the network keeps its per-node state in a table indexed by id,
// so a node costs a table row up to the largest id mentioned.
type NodeID int

// Handler receives delivered messages. Implementations are single-threaded:
// the scheduler invokes at most one handler at a time.
type Handler interface {
	HandleMessage(from NodeID, msg any)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, msg any)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from NodeID, msg any) { f(from, msg) }

// LatencyModel samples a one-way delivery latency for a (from, to) pair.
// Sample runs in the middle of a Send and must not send or schedule.
type LatencyModel interface {
	Sample(rng *rand.Rand, from, to NodeID) time.Duration
}

// FixedLatency delivers every message after a constant delay.
type FixedLatency time.Duration

// Sample implements LatencyModel.
func (l FixedLatency) Sample(*rand.Rand, NodeID, NodeID) time.Duration {
	return time.Duration(l)
}

// UniformLatency samples uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max time.Duration
}

// Sample implements LatencyModel.
func (l UniformLatency) Sample(rng *rand.Rand, _, _ NodeID) time.Duration {
	if l.Max <= l.Min {
		return l.Min
	}
	return l.Min + time.Duration(rng.Int63n(int64(l.Max-l.Min)+1))
}

// Stats aggregates traffic counters. Per-link overheads feed the
// Proposition 3 experiment.
type Stats struct {
	Sent        uint64
	Delivered   uint64
	Dropped     uint64 // random loss (global drop rate)
	Partition   uint64 // blocked by partition
	NodeDown    uint64 // destination (or source) crashed
	Unknown     uint64 // destination never registered
	Intercepts  uint64 // messages altered or consumed by a filter
	LinkDropped uint64 // lost to a per-link fault's Drop probability
	Duplicated  uint64 // delivered twice by a per-link Duplicate fault
	Reordered   uint64 // held back past later traffic by a Reorder fault
}

// Fault is a per-link degradation model layered over the base latency:
// lossy, slow, jittery, duplicating or reordering wires. The zero Fault is
// a clean link. All randomness comes from the scheduler RNG in a fixed
// draw order (drop, jitter, reorder, duplicate), so faulty runs replay
// byte-identically from the same seed.
type Fault struct {
	// Drop is an additional independent per-message loss probability on
	// this link, in [0, 1), applied after the global drop rate.
	Drop float64
	// ExtraLatency is a constant delay added to every delivery.
	ExtraLatency time.Duration
	// Jitter adds a uniformly random delay in [0, Jitter] per message.
	Jitter time.Duration
	// Duplicate is the probability, in [0, 1], that a message is delivered
	// a second time (with an independently sampled latency).
	Duplicate float64
	// Reorder is the probability, in [0, 1], that a message is held back
	// by an extra random delay so later traffic can overtake it.
	Reorder float64
}

// IsZero reports whether the fault is the clean link.
func (f Fault) IsZero() bool { return f == Fault{} }

// Validate rejects parameters that would silently misbehave: negative
// durations, probabilities outside their ranges (Drop must stay below 1 —
// a link that drops everything is a partition, and SetPartitions models
// that honestly).
func (f Fault) Validate() error {
	if f.Drop < 0 || f.Drop >= 1 {
		return fmt.Errorf("simnet: fault drop %v out of [0,1)", f.Drop)
	}
	if f.ExtraLatency < 0 {
		return fmt.Errorf("simnet: negative fault extra latency %v", f.ExtraLatency)
	}
	if f.Jitter < 0 {
		return fmt.Errorf("simnet: negative fault jitter %v", f.Jitter)
	}
	if f.Duplicate < 0 || f.Duplicate > 1 {
		return fmt.Errorf("simnet: fault duplicate %v out of [0,1]", f.Duplicate)
	}
	if f.Reorder < 0 || f.Reorder > 1 {
		return fmt.Errorf("simnet: fault reorder %v out of [0,1]", f.Reorder)
	}
	return nil
}

// Verdict is a filter's decision about a message in flight.
type Verdict int

// Filter verdicts.
const (
	Pass Verdict = iota // deliver unchanged
	Drop                // silently discard (counts as an intercept)
)

// Filter inspects messages in flight; used by experiments to model targeted
// Byzantine network behaviour (delay, drop, reorder via re-send).
type Filter func(from, to NodeID, msg any) Verdict

// Network is a simulated network. It is not safe for concurrent use; all
// access must happen from scheduler callbacks or the driving test.
type Network struct {
	sched    *sim.Scheduler
	latency  LatencyModel
	dropRate float64
	nodes    []node   // per-node state, indexed by NodeID
	ids      []NodeID // registered ids, sorted, for deterministic iteration
	filters  []Filter
	stats    Stats
	run      *delivery     // the open run of the Send or Broadcast in progress, if any
	runDelay time.Duration // its deliveries' common delay
	free     []*delivery   // fired records, reused by later runs
}

// node is one row of the per-node table. A row exists for every id up to
// the largest one registered, crashed or partitioned; the zero row is a
// node nobody mentioned: unregistered, up, in partition group 0.
type node struct {
	handler Handler // nil until registered
	group   int     // partition group; 0 = unlisted
	down    bool
	stats   Stats   // counted only once registered
	faults  []Fault // outgoing link faults, indexed by destination id; zero = clean
}

// faultTo returns the fault on the link from this node to dst.
func (nd *node) faultTo(dst NodeID) Fault {
	if dst >= 0 && int(dst) < len(nd.faults) {
		return nd.faults[dst]
	}
	return Fault{}
}

// noNode stands in for ids beyond the table, so Send reads any id without
// a bounds branch per field. It is never written.
var noNode node

// row returns id's table row for reading.
func (n *Network) row(id NodeID) *node {
	if id >= 0 && int(id) < len(n.nodes) {
		return &n.nodes[id]
	}
	return &noNode
}

// grow returns id's table row for writing, extending the table to hold it.
func (n *Network) grow(id NodeID) *node {
	for int(id) >= len(n.nodes) {
		n.nodes = append(n.nodes, node{})
	}
	return &n.nodes[id]
}

// New creates a network driven by the given scheduler. latency must be
// non-nil; dropRate is the independent per-message loss probability in
// [0, 1).
func New(sched *sim.Scheduler, latency LatencyModel, dropRate float64) (*Network, error) {
	if sched == nil {
		return nil, errors.New("simnet: nil scheduler")
	}
	if latency == nil {
		return nil, errors.New("simnet: nil latency model")
	}
	if dropRate < 0 || dropRate >= 1 {
		return nil, fmt.Errorf("simnet: drop rate %v out of [0,1)", dropRate)
	}
	return &Network{sched: sched, latency: latency, dropRate: dropRate}, nil
}

// SetDropRate changes the global per-message loss probability at runtime.
// The same [0, 1) domain as New applies.
func (n *Network) SetDropRate(rate float64) error {
	if rate < 0 || rate >= 1 {
		return fmt.Errorf("simnet: drop rate %v out of [0,1)", rate)
	}
	n.dropRate = rate
	return nil
}

// DropRate returns the current global loss probability.
func (n *Network) DropRate() float64 { return n.dropRate }

// SetLinkFault installs (or, with the zero Fault, clears) the fault model
// on the directed link from -> to, replacing any previous fault. Faults
// are mutable at runtime — mid-scenario degradation is the point — and
// compose with partitions, crash state and the global drop rate, all of
// which are checked first.
func (n *Network) SetLinkFault(from, to NodeID, f Fault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if from < 0 || to < 0 {
		return fmt.Errorf("simnet: negative node id on link %d->%d", from, to)
	}
	src := n.grow(from)
	for int(to) >= len(src.faults) {
		src.faults = append(src.faults, Fault{})
	}
	src.faults[to] = f
	return nil
}

// LinkFault returns the fault installed on the directed link, if any.
func (n *Network) LinkFault(from, to NodeID) (Fault, bool) {
	f := n.row(from).faultTo(to)
	return f, !f.IsZero()
}

// Register attaches a handler for id, replacing any previous registration.
func (n *Network) Register(id NodeID, h Handler) error {
	if h == nil {
		return errors.New("simnet: nil handler")
	}
	if id < 0 {
		return fmt.Errorf("simnet: negative node id %d", id)
	}
	nd := n.grow(id)
	if nd.handler == nil {
		// Insert keeping ids sorted so Broadcast order is deterministic.
		pos := sort.Search(len(n.ids), func(i int) bool { return n.ids[i] >= id })
		n.ids = append(n.ids, 0)
		copy(n.ids[pos+1:], n.ids[pos:])
		n.ids[pos] = id
	}
	nd.handler = h
	return nil
}

// SetDown marks a node crashed (true) or recovered (false). Messages to or
// from a crashed node are lost. A negative id is ignored: no node can be
// registered under one.
func (n *Network) SetDown(id NodeID, down bool) {
	if id >= 0 {
		n.grow(id).down = down
	}
}

// IsDown reports whether a node is marked crashed.
func (n *Network) IsDown(id NodeID) bool { return n.row(id).down }

// SetPartitions splits the network into groups; nodes in different groups
// cannot exchange messages. Nodes not listed fall into group 0. Passing no
// groups heals all partitions. Negative ids are ignored, as by SetDown.
func (n *Network) SetPartitions(groups ...[]NodeID) {
	for i := range n.nodes {
		n.nodes[i].group = 0
	}
	for g, nodes := range groups {
		for _, id := range nodes {
			if id >= 0 {
				n.grow(id).group = g + 1
			}
		}
	}
}

// AddFilter installs an interception filter. Filters run in order; the
// first non-Pass verdict wins.
func (n *Network) AddFilter(f Filter) {
	if f != nil {
		n.filters = append(n.filters, f)
	}
}

// Stats returns aggregate counters.
func (n *Network) Stats() Stats { return n.stats }

// NodeStats returns the counters for one node (messages it sent /
// received). The zero Stats is returned for unknown nodes.
func (n *Network) NodeStats(id NodeID) Stats {
	return n.row(id).stats
}

// Send schedules delivery of msg from -> to, applying loss, partitions,
// crash state, filters and per-link faults. It never fails synchronously:
// all loss modes are counted in Stats, mirroring a real datagram network.
// It is the one-destination case of Broadcast: both make their decisions
// in route and queue what survives through deliver and flush.
func (n *Network) Send(from, to NodeID, msg any) {
	n.route(from, to, msg)
	n.flush()
}

// Broadcast sends msg from -> every registered node except the sender, in
// ascending id order (delivery order is then randomized by per-link
// latency, but the send sequence — and hence RNG consumption — is
// deterministic). Deliveries that land on one instant share a queue entry
// (see delivery); on clean fixed-latency links that is the whole broadcast.
func (n *Network) Broadcast(from NodeID, msg any) {
	for _, id := range n.ids {
		if id != from {
			n.route(from, id, msg)
		}
	}
	n.flush()
}

// route makes every send-time decision for one message and hands what
// survives to deliver.
func (n *Network) route(from, to NodeID, msg any) {
	src, dst := n.row(from), n.row(to)
	n.stats.Sent++
	if src.handler != nil {
		src.stats.Sent++
	}
	if src.down || dst.down {
		n.stats.NodeDown++
		return
	}
	if src.group != dst.group {
		n.stats.Partition++
		return
	}
	if len(n.filters) > 0 {
		// A filter may send or schedule: the open run takes its sequence
		// numbers first, as its deliveries did when each was its own event.
		n.flush()
		for _, f := range n.filters {
			if f(from, to, msg) == Drop {
				n.stats.Intercepts++
				return
			}
		}
	}
	if n.dropRate > 0 && n.sched.Rand().Float64() < n.dropRate {
		n.stats.Dropped++
		return
	}
	// Per-link fault, layered over the base latency. The RNG draw order is
	// fixed — drop, jitter, reorder, duplicate (then the duplicate's own
	// latency and jitter) — so the replay contract survives faulty links.
	// The row is looked up again: a filter may have grown the table.
	fault := n.row(from).faultTo(to)
	if fault.Drop > 0 && n.sched.Rand().Float64() < fault.Drop {
		n.stats.LinkDropped++
		return
	}
	n.deliver(from, to, msg, n.faultDelay(from, to, fault))
	if fault.Duplicate > 0 && n.sched.Rand().Float64() < fault.Duplicate {
		n.stats.Duplicated++
		n.deliver(from, to, msg, n.faultDelay(from, to, fault))
	}
}

// faultDelay samples one delivery delay: base latency, plus the fault's
// constant and jittered extras, plus — with probability Reorder — a
// hold-back of up to the accumulated delay again (at least 1ms, so even
// zero-latency links actually let later traffic overtake).
func (n *Network) faultDelay(from, to NodeID, fault Fault) time.Duration {
	delay := n.latency.Sample(n.sched.Rand(), from, to) + fault.ExtraLatency
	if fault.Jitter > 0 {
		delay += time.Duration(n.sched.Rand().Int63n(int64(fault.Jitter) + 1))
	}
	if fault.Reorder > 0 && n.sched.Rand().Float64() < fault.Reorder {
		holdback := int64(delay)
		if holdback < int64(time.Millisecond) {
			holdback = int64(time.Millisecond)
		}
		delay += time.Duration(n.sched.Rand().Int63n(holdback + 1))
		n.stats.Reordered++
	}
	return delay
}

// delivery is a run of messages in flight: consecutive deliveries of one
// Send or Broadcast that land on the same instant, queued as one scheduler
// burst that fires once per destination. A run closes — is queued, taking
// one sequence number per destination — when the next delivery's delay
// differs, before any filter runs, and when the call returns, so nothing
// else is ever scheduled between two of its deliveries: their sequence
// numbers are the consecutive ones they would have drawn as separate
// events, and the firing order is exactly that of one event per message.
// A record is reused once its last handler has returned, which is what
// makes a warm broadcast allocation-free.
type delivery struct {
	ev   sim.Event
	net  *Network
	from NodeID
	msg  any
	to   []NodeID // destinations, in send order
	next int      // index into to of the next firing
}

// deliver adds one delivery attempt after delay to the open run, closing
// it first if its deliveries land on a different instant.
func (n *Network) deliver(from, to NodeID, msg any, delay time.Duration) {
	if n.run != nil && n.runDelay != delay {
		n.flush()
	}
	if n.run == nil {
		if last := len(n.free) - 1; last >= 0 {
			n.run, n.free = n.free[last], n.free[:last]
		} else {
			n.run = &delivery{net: n}
		}
		n.run.from, n.run.msg, n.runDelay = from, msg, delay
	}
	n.run.to = append(n.run.to, to)
}

// flush closes the open run, if there is one.
func (n *Network) flush() {
	if d := n.run; d != nil {
		n.run = nil
		n.sched.ScheduleN(&d.ev, n.runDelay, "deliver", d, len(d.to))
	}
}

// Fire hands the message to the run's next destination, re-checking its
// registration and crash state at delivery time.
func (d *delivery) Fire() {
	n := d.net
	dst := n.row(d.to[d.next])
	d.next++
	switch {
	case dst.handler == nil:
		n.stats.Unknown++
	case dst.down:
		n.stats.NodeDown++
	default:
		n.stats.Delivered++
		dst.stats.Delivered++
		dst.handler.HandleMessage(d.from, d.msg)
	}
	// Only now, with the last handler back, may a send reuse the record.
	if d.next == len(d.to) {
		d.msg, d.to, d.next = nil, d.to[:0], 0
		n.free = append(n.free, d)
	}
}

// Nodes returns the registered node ids in ascending order.
func (n *Network) Nodes() []NodeID {
	return append([]NodeID(nil), n.ids...)
}

// Scheduler exposes the driving scheduler so protocols can set timers with
// the same virtual clock.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }
