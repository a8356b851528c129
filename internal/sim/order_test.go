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
	every(start, interval time.Duration, fn func()) (stop func() bool, err error)
	run(horizon time.Duration)
	fired() uint64
}

type realSched struct{ s *Scheduler }

func newRealSched() realSched { return realSched{NewScheduler(1)} }

func (r realSched) now() time.Duration { return r.s.Now() }
func (r realSched) fired() uint64      { return r.s.Fired() }
func (r realSched) run(h time.Duration) {
	if err := r.s.Run(h); err != nil {
		panic(err)
	}
}
func (r realSched) at(t time.Duration, fn func()) (func() bool, error) {
	ev, err := r.s.At(t, "at", fn)
	return ev.Stop, err
}
func (r realSched) after(d time.Duration, fn func()) func() bool {
	return r.s.After(d, "after", fn).Stop
}
func (r realSched) every(start, interval time.Duration, fn func()) (func() bool, error) {
	rep, err := r.s.Every(start, interval, "every", fn)
	return rep.Stop, err
}

// refSched is the reference: pending events in scheduling order, the next
// one found by a stable sort on the instant alone — so ties keep
// scheduling order, which is what Seq encodes. Every is the textbook
// closure that re-arms itself before calling fn.
type refSched struct {
	clock   time.Duration
	pending []*refEvent
	count   uint64
}

type refEvent struct {
	at      time.Duration
	fn      func()
	stopped bool
	done    bool
}

func (e *refEvent) stop() bool {
	if e.stopped || e.done {
		return false
	}
	e.stopped = true
	return true
}

func (r *refSched) now() time.Duration { return r.clock }
func (r *refSched) fired() uint64      { return r.count }

func (r *refSched) at(t time.Duration, fn func()) (func() bool, error) {
	if t < r.clock {
		return (*refEvent)(nil).stop, fmt.Errorf("past")
	}
	e := &refEvent{at: t, fn: fn}
	r.pending = append(r.pending, e)
	return e.stop, nil
}

func (r *refSched) after(d time.Duration, fn func()) func() bool {
	if d < 0 {
		d = 0
	}
	stop, _ := r.at(r.clock+d, fn)
	return stop
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

func (r *refSched) run(horizon time.Duration) {
	for {
		sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].at < r.pending[j].at })
		for len(r.pending) > 0 && r.pending[0].stopped {
			r.pending = r.pending[1:]
		}
		if len(r.pending) == 0 || r.pending[0].at > horizon {
			break
		}
		e := r.pending[0]
		r.pending = r.pending[1:]
		e.done = true
		r.clock = e.at
		r.count++
		e.fn()
	}
	if r.clock < horizon {
		r.clock = horizon
	}
}

// runScript interprets script as scheduler operations — two bytes each, an
// opcode and an argument — and returns a log of everything observable:
// which event fired when, what every Stop and rejected call returned, the
// final clock and fired count. Callbacks of nested events read further
// operations from the same script, so the log also depends on firing order.
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
		code, arg := script[next]%6, time.Duration(script[next+1])
		next += 2
		if code == 5 && depth > 0 {
			code = 0 // Run is not re-entrant: callbacks only schedule and stop
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
			api.run(api.now() + arg*unit)
			fmt.Fprintf(&log, "ran->%v ", api.now())
		}
	}
	for next+1 < len(script) {
		op(0)
	}
	api.run(api.now() + 300*unit)
	fmt.Fprintf(&log, "end@%v fired=%d", api.now(), api.fired())
	return log.String()
}

// scriptSeeds are the fuzz corpus: hand-written shapes plus a few random
// scripts long enough to mix every opcode.
func scriptSeeds() [][]byte {
	seeds := [][]byte{
		{},
		{0, 5, 0, 5, 0, 5},                  // ties break by scheduling order
		{0, 9, 3, 0, 3, 0},                  // stop, then stop again
		{0, 1, 5, 10, 3, 0},                 // stop after fire
		{2, 3, 0, 0, 2, 0, 4, 9, 3, 1},      // nested scheduling at the same instant
		{4, 2, 4, 6, 5, 20, 3, 0, 3, 1},     // repeats stopped from outside mid-run
		{5, 100, 1, 0, 1, 64, 1, 200, 0, 0}, // At in the past is rejected
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

type record struct {
	ev    Event
	fired int
}

func (r *record) Fire() { r.fired++ }

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
