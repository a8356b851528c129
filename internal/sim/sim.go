// Package sim provides a deterministic discrete-event simulation engine.
//
// All time in the simulator is virtual: a Scheduler owns a monotonically
// advancing clock and an event queue ordered by (time, sequence). Events
// scheduled for the same instant fire in scheduling order, which — together
// with an explicitly seeded random source — makes every run replayable.
//
// A burst (ScheduleN) is n firings of one action at one instant held as a
// single queue entry. It reserves n consecutive sequence numbers and takes
// the next one at each firing, so the run's (time, sequence) order — what
// fires before and after each firing, what Fired counts, where a horizon or
// Stop cuts in — is the order n separate events would have produced, for
// one heap push and one heap pop instead of n of each.
//
// The engine is intentionally single-threaded. Consensus protocols built on
// top of it (internal/bftlive, internal/nakamoto) are message-driven state
// machines whose nondeterminism is confined to the seeded RNG, so a safety
// violation observed once can be reproduced exactly from the seed.
//
// Independent runs fan out on Parallel, the one worker pool: it hands out
// indices in ascending order and its callers fill slots indexed by them,
// so together with ChunkSeed a fan-out's results do not depend on the
// worker count.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrStopped is returned by Run when the scheduler was stopped explicitly
// before reaching its horizon.
var ErrStopped = errors.New("sim: scheduler stopped")

// Action is work the scheduler runs at an event's instant. At, After and
// Every wrap a func(); a caller that already allocates a record per event
// (simnet's in-flight message) implements Action on the record and queues
// it with Schedule instead of paying for a closure.
type Action interface {
	Fire()
}

type funcAction func()

func (f funcAction) Fire() { f() }

// Event is a unit of work scheduled at a virtual instant, and the handle
// that cancels it.
type Event struct {
	Name string // static label, for a debugger; never formatted per event
	act  Action // runs with the clock set to the event's instant
	// state is idle (never queued, fired, or reaped), pending or cancelled;
	// the last two mean the queue holds a pointer to the event.
	state uint8
	last  uint64 // while pending, the last sequence number reserved for it
}

const (
	idle uint8 = iota
	pending
	cancelled
)

// Stop cancels the event. It reports whether the event had not yet fired.
// Stopping an already-fired or already-stopped event is a no-op. A burst
// counts as fired after its last firing: stopping it earlier, from inside
// its own action included, cancels the firings that remain.
func (e *Event) Stop() bool {
	if e == nil || e.state != pending {
		return false
	}
	e.state = cancelled
	e.act = nil
	return true
}

// entry is one queue slot. The sort key sits beside the pointer so the
// heap compares without touching the events.
type entry struct {
	at  time.Duration // virtual time at which the event fires
	seq uint64        // tie-breaker: order of scheduling; a burst's next firing
	ev  *Event
}

// before is the queue order: (at, seq), a total order because seq is unique.
func (e entry) before(o entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler is a deterministic discrete-event scheduler. The zero value is
// not ready to use; construct with NewScheduler.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	queue   []entry // binary min-heap on entry.before
	src     lazySource
	rng     *rand.Rand // draws from src
	stopped bool
	fired   uint64
}

// NewScheduler returns a scheduler whose random source is seeded with seed.
// The same seed always produces the same run.
func NewScheduler(seed int64) *Scheduler {
	s := &Scheduler{src: lazySource{seed: seed}}
	s.rng = rand.New(&s.src)
	return s
}

// lazySource is rand.NewSource(seed), built on the first draw: a run that
// never draws (an analytic timeline's) never pays for the 607-word state or
// its seeding. The stream is the one rand.NewSource(seed) gives, bit for bit.
type lazySource struct {
	seed int64
	src  rand.Source64 // nil until the first draw
}

func (l *lazySource) get() rand.Source64 {
	if l.src == nil {
		// rand.NewSource's source has always been a Source64.
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64   { return l.get().Int63() }
func (l *lazySource) Uint64() uint64 { return l.get().Uint64() }

func (l *lazySource) Seed(seed int64) {
	if l.src != nil {
		l.src.Seed(seed)
	}
	l.seed = seed
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source. Protocol code
// must draw all randomness from this source to remain replayable. The source
// is seeded on its first draw, not by NewScheduler: a run that never draws
// costs no source, and one that does sees the stream
// rand.New(rand.NewSource(seed)) would give.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Fired reports how many events have been executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports how many entries are queued (including cancelled ones that
// have not been reaped yet). A burst is one entry until its last firing.
func (s *Scheduler) Pending() int { return len(s.queue) }

// push queues ev for n firings at instant at under the next n sequence
// numbers, sifting its one entry up from the last leaf.
func (s *Scheduler) push(ev *Event, at time.Duration, name string, act Action, n int) {
	e := entry{at: at, seq: s.seq + 1, ev: ev}
	s.seq += uint64(n)
	ev.Name, ev.act, ev.state, ev.last = name, act, pending, s.seq
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	s.queue = q
}

// pop removes and returns the earliest queue entry, sifting the last leaf
// down from the root.
func (s *Scheduler) pop() entry {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	q = q[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q[right].before(q[child]) {
			child = right
		}
		if !q[child].before(last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = last
	}
	s.queue = q
	return top
}

// queueAt queues ev for the absolute instant at. Scheduling in the past is
// an error: deterministic replay requires a causally ordered event log.
func (s *Scheduler) queueAt(ev *Event, at time.Duration, name string, act Action) error {
	if at < s.now {
		return fmt.Errorf("sim: schedule at %v before now %v", at, s.now)
	}
	s.push(ev, at, name, act, 1)
	return nil
}

// At schedules fn to run at absolute virtual time at; an instant before
// Now is an error.
//
// name is a static label: pass a constant. Nothing reads it on the run
// path, so a label formatted per event is pure cost — a fifth of a
// live-loop timeline, when simnet did it per message.
func (s *Scheduler) At(at time.Duration, name string, fn func()) (*Event, error) {
	if fn == nil {
		return nil, errors.New("sim: nil event func")
	}
	ev := &Event{}
	if err := s.queueAt(ev, at, name, funcAction(fn)); err != nil {
		return nil, err
	}
	return ev, nil
}

// After schedules fn to run delay after the current virtual time. A negative
// delay is clamped to zero. name is a constant label, as for At.
func (s *Scheduler) After(delay time.Duration, name string, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	ev, err := s.At(s.now+delay, name, fn)
	if err != nil {
		// Unreachable for a non-nil fn: now+delay >= now by construction.
		panic(err)
	}
	return ev
}

// Schedule queues ev, an event the caller allocated — typically embedded
// in the record act is a method of, so the two cost one allocation — to
// run act delay after the current virtual time. A negative delay is
// clamped to zero. ev must not be queued: a fired event may be scheduled
// again, a pending or stopped-but-unreaped one may not. name is a constant
// label, as for At.
func (s *Scheduler) Schedule(ev *Event, delay time.Duration, name string, act Action) {
	s.ScheduleN(ev, delay, name, act, 1)
}

// ScheduleN is Schedule for a burst: act fires n times at the one instant,
// back to back, exactly where n events scheduled by n consecutive Schedule
// calls would have fired — anything an earlier firing schedules for that
// instant runs after the last one. The queue holds one entry for all n;
// ev stays pending, and so may not be scheduled again, until the last
// firing. n below 1 is a caller's bug and panics.
func (s *Scheduler) ScheduleN(ev *Event, delay time.Duration, name string, act Action, n int) {
	if act == nil {
		panic("sim: nil event action")
	}
	if ev.state != idle {
		panic("sim: event " + ev.Name + " scheduled while still queued")
	}
	if n < 1 {
		panic(fmt.Sprintf("sim: burst of %d firings", n))
	}
	if delay < 0 {
		delay = 0
	}
	s.push(ev, s.now+delay, name, act, n)
}

// Repeat is a handle to a self-rescheduling periodic event created by
// Every. Stopping it cancels the pending occurrence and prevents further
// rescheduling.
type Repeat struct {
	ev       Event // the pending occurrence; re-queued in place each period
	sched    *Scheduler
	interval time.Duration
	fn       func()
}

// Stop cancels the repeat. It reports whether a pending occurrence was
// cancelled.
func (r *Repeat) Stop() bool {
	return r != nil && r.ev.Stop()
}

// occurrence is a Repeat as the scheduler sees it, so that Fire is not a
// method of the handle callers hold.
type occurrence Repeat

// Fire queues the next occurrence before fn runs, so fn may itself Stop
// the handle.
func (o *occurrence) Fire() {
	o.sched.Schedule(&o.ev, o.interval, o.ev.Name, o)
	o.fn()
}

// Every schedules fn at start and then every interval of virtual time
// thereafter, until the handle is stopped or the run's horizon cuts the
// series off (the next occurrence stays queued past the horizon, like any
// other event). name is a constant label, as for At.
func (s *Scheduler) Every(start, interval time.Duration, name string, fn func()) (*Repeat, error) {
	if fn == nil {
		return nil, errors.New("sim: nil event func")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("sim: non-positive interval %v", interval)
	}
	r := &Repeat{sched: s, interval: interval, fn: fn}
	if err := s.queueAt(&r.ev, start, name, (*occurrence)(r)); err != nil {
		return nil, err
	}
	return r, nil
}

// Step executes the next pending event, advancing the clock to its instant.
// It reports whether an event was executed. One firing of a burst is one
// event.
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		root := &s.queue[0]
		ev := root.ev
		if ev.state != pending {
			s.pop()
			ev.state = idle
			continue
		}
		s.now = root.at
		s.fired++
		act := ev.act
		if root.seq < ev.last {
			// A burst with firings to spare stays at the root under its
			// next reserved number: every other entry sorts after all of them.
			root.seq++
		} else {
			s.pop()
			ev.state, ev.act = idle, nil
		}
		act.Fire()
		return true
	}
	return false
}

// Stop halts a Run in progress after the current event completes; inside a
// burst, after the current firing, the rest staying queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events until the queue drains, the virtual clock would pass
// horizon, or Stop is called. The clock never advances beyond horizon; events
// scheduled later remain queued. Run returns ErrStopped if halted by Stop,
// nil otherwise.
func (s *Scheduler) Run(horizon time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return ErrStopped
		}
		next := s.queue[0]
		if next.ev.state == cancelled {
			s.pop().ev.state = idle
			continue
		}
		if next.at > horizon {
			s.now = horizon
			return nil
		}
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
	return nil
}

// RunAll executes events until the queue drains or maxEvents have fired,
// whichever comes first. It returns the number of events executed. A zero
// maxEvents means no limit; callers protecting against livelock should pass
// an explicit bound.
func (s *Scheduler) RunAll(maxEvents uint64) uint64 {
	var n uint64
	for {
		if maxEvents > 0 && n >= maxEvents {
			return n
		}
		if !s.Step() {
			return n
		}
		n++
	}
}

// ChunkSeed derives the deterministic seed for chunk c via SplitMix64 —
// one cheap, well-mixed 64-bit permutation step per chunk, so neighbouring
// chunks get uncorrelated streams even for small base seeds. The Monte
// Carlo trial runner seeds its chunks with it and the scenario package its
// generated timelines and per-scenario schedulers: any fixed-size-index
// fan-out that must not depend on worker count wants exactly this
// derivation.
func ChunkSeed(seed int64, c int) int64 {
	x := uint64(seed) + (uint64(c)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
