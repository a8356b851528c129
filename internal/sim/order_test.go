package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// schedAPI is the scheduler surface a script drives, implemented by the
// real Scheduler and by refSched, the reference model it is checked
// against. Handles are reduced to their Stop method.
type schedAPI interface {
	now() time.Duration
	at(t time.Duration, fn func()) (stop func() bool, err error)
	after(d time.Duration, fn func()) (stop func() bool)
	burst(d time.Duration, n int, fn func()) (stop func() bool)
	every(start, interval time.Duration, fn func()) (stop func() bool, err error)
	run(horizon time.Duration) (stopped bool)
	runAll(max uint64) uint64
	step() bool
	halt()
	fired() uint64
	pending() int
}

type realSched struct{ s *Scheduler }

func newRealSched() realSched { return realSched{NewScheduler(1)} }

func (r realSched) now() time.Duration       { return r.s.Now() }
func (r realSched) fired() uint64            { return r.s.Fired() }
func (r realSched) pending() int             { return r.s.Pending() }
func (r realSched) runAll(max uint64) uint64 { return r.s.RunAll(max) }
func (r realSched) step() bool               { return r.s.Step() }
func (r realSched) halt()                    { r.s.Stop() }
func (r realSched) run(h time.Duration) bool { return r.s.Run(h) == ErrStopped }
func (r realSched) at(t time.Duration, fn func()) (func() bool, error) {
	ev, err := r.s.At(t, "at", fn)
	return ev.Stop, err
}
func (r realSched) after(d time.Duration, fn func()) func() bool {
	return r.s.After(d, "after", fn).Stop
}
func (r realSched) burst(d time.Duration, n int, fn func()) func() bool {
	rec := &record{fn: fn}
	if n == 1 {
		r.s.Schedule(&rec.ev, d, "schedule", rec)
	} else {
		r.s.ScheduleN(&rec.ev, d, "burst", rec, n)
	}
	return rec.ev.Stop
}
func (r realSched) every(start, interval time.Duration, fn func()) (func() bool, error) {
	rep, err := r.s.Every(start, interval, "every", fn)
	return rep.Stop, err
}

// refSched is the reference: pending events in scheduling order, the next
// one found by a stable sort on the instant alone — so ties keep
// scheduling order, which is what Seq encodes. Every is the textbook
// closure that re-arms itself before calling fn, and a burst is n separate
// events under one handle. The model reaps a stopped event where the
// scheduler does — when it reaches the head — so that Pending agrees too.
type refSched struct {
	clock   time.Duration
	queue   []*refEvent
	count   uint64
	stopped bool
}

// refEvent is one firing; the firings of a burst share a refHandle.
type refEvent struct {
	at time.Duration
	fn func()
	h  *refHandle
}

type refHandle struct {
	left    int // firings not yet made
	stopped bool
}

func (h *refHandle) stop() bool {
	if h == nil || h.stopped || h.left == 0 {
		return false
	}
	h.stopped = true
	return true
}

func (r *refSched) now() time.Duration { return r.clock }
func (r *refSched) fired() uint64      { return r.count }
func (r *refSched) halt()              { r.stopped = true }

// pending counts handles, not firings: a burst is one queue entry.
func (r *refSched) pending() int {
	seen := map[*refHandle]bool{}
	for _, e := range r.queue {
		seen[e.h] = true
	}
	return len(seen)
}

func (r *refSched) queueN(t time.Duration, n int, fn func()) func() bool {
	h := &refHandle{left: n}
	for ; n > 0; n-- {
		r.queue = append(r.queue, &refEvent{at: t, fn: fn, h: h})
	}
	return h.stop
}

func (r *refSched) at(t time.Duration, fn func()) (func() bool, error) {
	if t < r.clock {
		return (*refHandle)(nil).stop, fmt.Errorf("past")
	}
	return r.queueN(t, 1, fn), nil
}

func (r *refSched) after(d time.Duration, fn func()) func() bool {
	return r.burst(d, 1, fn)
}

func (r *refSched) burst(d time.Duration, n int, fn func()) func() bool {
	if d < 0 {
		d = 0
	}
	return r.queueN(r.clock+d, n, fn)
}

func (r *refSched) every(start, interval time.Duration, fn func()) (func() bool, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("interval")
	}
	stopped := false
	var next func() bool
	var tick func()
	tick = func() {
		next = r.after(interval, tick)
		fn()
	}
	var err error
	if next, err = r.at(start, tick); err != nil {
		return nil, err
	}
	return func() bool {
		if stopped {
			return false
		}
		stopped = true
		return next()
	}, nil
}

// head sorts the queue and returns its first event, nil when empty.
func (r *refSched) head() *refEvent {
	sort.SliceStable(r.queue, func(i, j int) bool { return r.queue[i].at < r.queue[j].at })
	if len(r.queue) == 0 {
		return nil
	}
	return r.queue[0]
}

func (r *refSched) step() bool {
	for e := r.head(); e != nil; e = r.head() {
		r.queue = r.queue[1:]
		if e.h.stopped {
			continue
		}
		e.h.left--
		r.clock = e.at
		r.count++
		e.fn()
		return true
	}
	return false
}

func (r *refSched) runAll(max uint64) uint64 {
	var n uint64
	for (max == 0 || n < max) && r.step() {
		n++
	}
	return n
}

func (r *refSched) run(horizon time.Duration) bool {
	r.stopped = false
	for e := r.head(); e != nil; e = r.head() {
		switch {
		case r.stopped:
			return true
		case e.h.stopped:
			r.queue = r.queue[1:]
		case e.at > horizon:
			r.clock = horizon
			return false
		default:
			r.step()
		}
	}
	if r.clock < horizon {
		r.clock = horizon
	}
	return false
}

// runScript interprets script as scheduler operations — two bytes each, an
// opcode and an argument — and returns a log of everything observable:
// which event fired when, what every Stop and rejected call returned, and
// the clock, fired count and queue length after every top-level operation.
// Callbacks of nested events read further operations from the same script,
// so the log also depends on firing order.
func runScript(api schedAPI, script []byte) string {
	const unit = time.Millisecond
	var log strings.Builder
	var stops []func() bool
	next, id := 0, 0
	var op func(depth int)
	op = func(depth int) {
		if next+1 >= len(script) {
			return
		}
		code, arg := script[next]%10, time.Duration(script[next+1])
		next += 2
		if (code == 5 || code >= 8) && depth > 0 {
			code = 0 // Run, RunAll and Step are not re-entrant: callbacks only schedule, stop and halt
		}
		id++
		me := id
		fire := func() { fmt.Fprintf(&log, "%d@%v ", me, api.now()) }
		switch code {
		case 0:
			stops = append(stops, api.after(arg*unit, fire))
		case 1:
			// Every fourth target lies before now once the clock has moved:
			// both sides must reject it.
			t := api.now() + (arg-64)*unit
			stop, err := api.at(t, fire)
			if err != nil {
				fmt.Fprintf(&log, "%d:rejected ", me)
				return
			}
			stops = append(stops, stop)
		case 2:
			stops = append(stops, api.after(arg*unit, func() {
				fire()
				if depth < 3 {
					op(depth + 1)
					op(depth + 1)
				}
			}))
		case 3:
			if len(stops) > 0 {
				fmt.Fprintf(&log, "stop%d=%t ", int(arg)%len(stops), stops[int(arg)%len(stops)]())
			}
		case 4:
			// A repeat that stops itself from inside its arg%4-th occurrence
			// (never, for 0: the horizon cuts it off).
			n, limit := 0, int(arg%4)
			var stop func() bool
			stop, err := api.every(api.now()+arg*unit, (arg%7+1)*unit, func() {
				fire()
				if n++; n == limit {
					fmt.Fprintf(&log, "%d:self-stop=%t ", me, stop())
				}
			})
			if err != nil {
				fmt.Fprintf(&log, "%d:rejected ", me)
				return
			}
			stops = append(stops, stop)
		case 5:
			stopped := api.run(api.now() + arg*unit)
			fmt.Fprintf(&log, "ran->%v stopped=%t ", api.now(), stopped)
		case 6:
			// A burst of 1–5 firings, 0–7 units out. Its second firing runs
			// two more operations — zero-delay events, stops of anything
			// including itself, a halt — and, for one argument in four, its
			// third stops the burst from inside.
			n, k := int(arg%5)+1, 0
			var stop func() bool
			stop = api.burst((arg/5%8)*unit, n, func() {
				fire()
				switch k++; {
				case k == 2 && depth < 3:
					op(depth + 1)
					op(depth + 1)
				case k == 3 && arg%4 == 3:
					fmt.Fprintf(&log, "%d:self-stop=%t ", me, stop())
				}
			})
			stops = append(stops, stop)
		case 7:
			api.halt()
		case 8:
			fmt.Fprintf(&log, "stepped=%t ", api.step())
		case 9:
			fmt.Fprintf(&log, "ranall=%d ", api.runAll(uint64(arg%8)+1))
		}
	}
	for next+1 < len(script) {
		op(0)
		fmt.Fprintf(&log, "[%v %d %d] ", api.now(), api.fired(), api.pending())
	}
	for horizon := api.now() + 300*unit; api.run(horizon); {
		fmt.Fprintf(&log, "halted@%v ", api.now())
	}
	fmt.Fprintf(&log, "end@%v fired=%d pending=%d", api.now(), api.fired(), api.pending())
	return log.String()
}

// scriptSeeds are the fuzz corpus: hand-written shapes plus a few random
// scripts long enough to mix every opcode.
func scriptSeeds() [][]byte {
	seeds := [][]byte{
		{},
		{0, 5, 0, 5, 0, 5},                   // ties break by scheduling order
		{0, 9, 3, 0, 3, 0},                   // stop, then stop again
		{0, 1, 5, 10, 3, 0},                  // stop after fire
		{2, 3, 0, 0, 2, 0, 4, 9, 3, 1},       // nested scheduling at the same instant
		{4, 2, 4, 6, 5, 20, 3, 0, 3, 1},      // repeats stopped from outside mid-run
		{5, 100, 1, 0, 1, 64, 1, 200, 0, 0},  // At in the past is rejected
		{6, 4, 0, 0, 5, 1},                   // a burst, then a later event at its instant
		{6, 4, 8, 0, 8, 0, 0, 0, 0, 0, 5, 9}, // Step twice into a burst; the second firing schedules at its instant
		{6, 4, 7, 0, 0, 0, 5, 5, 0, 0},       // a burst halts the Run from its second firing
		{6, 7, 9, 3, 3, 0, 8, 0, 5, 2},       // RunAll ends mid-burst; it is stopped from outside
		{6, 3, 6, 2, 3, 0, 5, 1},             // a burst starts a burst and stops itself
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		b := make([]byte, 64)
		rng.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzSchedulerOrder checks the typed event heap against the reference
// stable sort on the seed scripts (every go test run) and on whatever the
// fuzzer invents from them.
func FuzzSchedulerOrder(f *testing.F) {
	for _, script := range scriptSeeds() {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 128 {
			t.Skip("long scripts only repeat the short ones' shapes")
		}
		if got, want := runScript(newRealSched(), script), runScript(&refSched{}, script); got != want {
			t.Fatalf("script %x\nscheduler: %s\nreference: %s", script, got, want)
		}
	})
}

// TestSchedulerAllocations pins the queue's own cost: one Event per After
// beyond the caller's closure, nothing per firing, and nothing at all for
// an event the caller embeds in its own record.
func TestSchedulerAllocations(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	if got := testing.AllocsPerRun(1000, func() {
		s.After(time.Millisecond, "pinned", fn)
		s.Step()
	}); got > 1 {
		t.Errorf("After + Step allocates %.0f objects, want at most 1", got)
	}
	rec := &record{}
	if got := testing.AllocsPerRun(1000, func() {
		s.Schedule(&rec.ev, time.Millisecond, "pinned", rec)
		s.Step()
	}); got != 0 {
		t.Errorf("Schedule of an embedded event + Step allocates %.0f objects, want 0", got)
	}
	if rec.fired != 1001 {
		t.Errorf("embedded event fired %d times, want 1001", rec.fired)
	}
}

// record is a caller's own event record: the Event embedded beside what
// its action needs.
type record struct {
	ev    Event
	fired int
	fn    func() // optional
}

func (r *record) Fire() {
	r.fired++
	if r.fn != nil {
		r.fn()
	}
}

func TestScheduleRejectsQueuedEvent(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := NewScheduler(1)
	rec := &record{}
	s.Schedule(&rec.ev, time.Millisecond, "once", rec)
	mustPanic("scheduling a pending event", func() { s.Schedule(&rec.ev, time.Millisecond, "twice", rec) })
	rec.ev.Stop()
	mustPanic("scheduling a stopped, unreaped event", func() { s.Schedule(&rec.ev, time.Millisecond, "twice", rec) })
	mustPanic("a nil action", func() { s.Schedule(&Event{}, 0, "nil", nil) })
	s.Run(time.Second)
	if rec.fired != 0 {
		t.Fatal("stopped event fired")
	}
	s.Schedule(&rec.ev, -time.Second, "again", rec) // reaped: reusable; negative delay clamps
	s.Run(2 * time.Second)
	if rec.fired != 1 || rec.ev.Stop() {
		t.Fatalf("fired = %d, Stop after fire = true or event not refired", rec.fired)
	}
}
