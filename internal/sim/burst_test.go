package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// burstTrace schedules, in this order, a burst of n "b" firings at 1ms, an
// event "after" at the same instant and an event "late" at 2ms, and returns
// the firing log. onBurst runs inside every burst firing with its 1-based
// index, after the firing is logged.
func burstTrace(s *Scheduler, n int, onBurst func(k int, rec *record, log func(string))) (*record, *strings.Builder) {
	out := &strings.Builder{}
	log := func(name string) { fmt.Fprintf(out, "%s@%v#%d ", name, s.Now(), s.Fired()) }
	rec := &record{}
	rec.fn = func() {
		log(fmt.Sprint("b", rec.fired))
		if onBurst != nil {
			onBurst(rec.fired, rec, log)
		}
	}
	s.ScheduleN(&rec.ev, time.Millisecond, "burst", rec, n)
	s.After(time.Millisecond, "after", func() { log("after") })
	s.After(2*time.Millisecond, "late", func() { log("late") })
	return rec, out
}

// A Run cut short inside a burst — by Scheduler.Stop, by RunAll's bound, or
// by driving single Steps — leaves the remaining firings queued under their
// reserved numbers: the next Run makes them before anything scheduled later,
// including what the burst itself scheduled for its own instant.
func TestBurstInterrupted(t *testing.T) {
	for _, name := range []string{"Stop", "RunAll", "Step"} {
		s := NewScheduler(1)
		rec, out := burstTrace(s, 4, func(k int, _ *record, _ func(string)) {
			if name == "Stop" && k == 2 {
				s.Stop()
			}
		})
		switch name {
		case "Stop":
			if err := s.Run(time.Second); err != ErrStopped {
				t.Fatalf("Run = %v, want ErrStopped", err)
			}
		case "RunAll":
			if n := s.RunAll(2); n != 2 {
				t.Fatalf("RunAll(2) = %d", n)
			}
		case "Step":
			if !s.Step() || !s.Step() {
				t.Fatal("Step found nothing to fire")
			}
		}
		if s.Fired() != 2 || s.Pending() != 3 || s.Now() != time.Millisecond || rec.ev.state != pending {
			t.Errorf("%s mid-burst: fired %d, pending %d, now %v, state %d; want 2, 3, 1ms, pending",
				name, s.Fired(), s.Pending(), s.Now(), rec.ev.state)
		}
		// The burst holds numbers 1–4; a root stuck on one of them never ends.
		if root := s.queue[0]; root.ev != &rec.ev || root.seq != 3 {
			t.Fatalf("%s mid-burst: root is %q under number %d, want the burst under 3", name, root.ev.Name, root.seq)
		}
		// Scheduled between the halves, for the burst's own instant: after it.
		s.After(0, "between", func() { fmt.Fprintf(out, "between@%v#%d ", s.Now(), s.Fired()) })
		if err := s.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		want := "b1@1ms#1 b2@1ms#2 b3@1ms#3 b4@1ms#4 after@1ms#5 between@1ms#6 late@2ms#7 "
		if got := out.String(); got != want {
			t.Errorf("%s mid-burst:\n got %s\nwant %s", name, got, want)
		}
		if s.Pending() != 0 || rec.ev.state != idle {
			t.Errorf("%s: %d entries left, state %d", name, s.Pending(), rec.ev.state)
		}
	}
}

// The horizon falls between instants, never inside one: a burst beyond it
// stays whole.
func TestBurstBeyondHorizon(t *testing.T) {
	s := NewScheduler(1)
	rec, _ := burstTrace(s, 3, nil)
	if err := s.Run(time.Millisecond - 1); err != nil || rec.fired != 0 || s.Pending() != 3 {
		t.Fatalf("before the instant: err %v, fired %d, pending %d", err, rec.fired, s.Pending())
	}
	if err := s.Run(time.Millisecond); err != nil || rec.fired != 3 || s.Pending() != 1 {
		t.Fatalf("at the instant: err %v, fired %d, pending %d", err, rec.fired, s.Pending())
	}
}

// Zero-delay events scheduled from inside a burst take sequence numbers
// past the burst's reserved ones: they fire after its last firing and after
// everything that was already queued for the instant.
func TestBurstSchedulesIntoItsOwnInstant(t *testing.T) {
	s := NewScheduler(1)
	_, out := burstTrace(s, 4, func(k int, _ *record, log func(string)) {
		if k <= 2 {
			name := fmt.Sprint("child", k)
			s.After(0, "child", func() { log(name) })
		}
	})
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	want := "b1@1ms#1 b2@1ms#2 b3@1ms#3 b4@1ms#4 after@1ms#5 child1@1ms#6 child2@1ms#7 late@2ms#8 "
	if got := out.String(); got != want {
		t.Errorf("\n got %s\nwant %s", got, want)
	}
}

// Event.Stop mid-burst, from inside the action or from outside between
// Steps, cancels exactly the firings not yet made; the reaped event can be
// scheduled again.
func TestBurstStopMidway(t *testing.T) {
	for _, inside := range []bool{true, false} {
		s := NewScheduler(1)
		rec, out := burstTrace(s, 4, func(k int, rec *record, _ func(string)) {
			if inside && k == 2 && !rec.ev.Stop() {
				t.Error("Stop from inside the second firing = false")
			}
		})
		if !inside {
			s.Step()
			s.Step()
			if !rec.ev.Stop() {
				t.Error("Stop between the second and third firing = false")
			}
		}
		if err := s.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		if rec.ev.Stop() {
			t.Error("second Stop = true")
		}
		if got, want := out.String(), "b1@1ms#1 b2@1ms#2 after@1ms#3 late@2ms#4 "; got != want {
			t.Errorf("inside=%t:\n got %s\nwant %s", inside, got, want)
		}
		rec.fn = nil
		s.ScheduleN(&rec.ev, 0, "again", rec, 2)
		s.RunAll(0)
		if rec.fired != 4 || s.Fired() != 6 || rec.ev.Stop() {
			t.Errorf("inside=%t: rescheduled burst: fired %d of %d, or Stop after the last firing = true", inside, rec.fired, s.Fired())
		}
	}
}

// A burst's event is pending until its last firing and idle during it: it
// cannot be scheduled again from an earlier firing, and can from the last —
// which is how a one-firing event re-arms itself.
func TestBurstReschedule(t *testing.T) {
	s := NewScheduler(1)
	panicked := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return false
	}
	var early, last bool
	rec, _ := burstTrace(s, 3, func(k int, rec *record, _ func(string)) {
		switch k {
		case 1:
			early = panicked(func() { s.Schedule(&rec.ev, 0, "twice", rec) })
		case 3:
			last = panicked(func() { s.ScheduleN(&rec.ev, time.Millisecond, "re-armed", rec, 2) })
		}
	})
	if !panicked(func() { s.ScheduleN(&rec.ev, 0, "twice", rec, 2) }) {
		t.Error("scheduling a queued burst did not panic")
	}
	if err := s.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !early || last {
		t.Errorf("re-Schedule from the first firing panicked=%t (want true), from the last panicked=%t (want false)", early, last)
	}
	if rec.fired != 5 || s.Fired() != 7 {
		t.Errorf("burst fired %d times of %d events, want 5 of 7", rec.fired, s.Fired())
	}
	for _, n := range []int{0, -1} {
		if !panicked(func() { s.ScheduleN(&Event{}, 0, "none", rec, n) }) {
			t.Errorf("a burst of %d firings did not panic", n)
		}
	}
	if s.Pending() != 0 {
		t.Errorf("a rejected burst left %d entries queued", s.Pending())
	}
}

// A burst costs its caller's record and nothing per firing.
func TestBurstAllocations(t *testing.T) {
	s := NewScheduler(1)
	rec := &record{}
	s.ScheduleN(&rec.ev, 0, "warm", rec, 8) // grows the queue once
	s.RunAll(0)
	if got := testing.AllocsPerRun(1000, func() {
		s.ScheduleN(&rec.ev, time.Millisecond, "pinned", rec, 8)
		s.RunAll(0)
	}); got != 0 {
		t.Errorf("ScheduleN of an embedded event + 8 firings allocates %.0f objects, want 0", got)
	}
	if rec.fired != 8*1002 {
		t.Errorf("burst fired %d times, want %d", rec.fired, 8*1002)
	}
}
