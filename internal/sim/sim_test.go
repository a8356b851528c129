package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Millisecond, "c", func() { got = append(got, 3) })
	s.After(10*time.Millisecond, "a", func() { got = append(got, 1) })
	s.After(20*time.Millisecond, "b", func() { got = append(got, 2) })
	if err := s.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSchedulerTieBreakBySeq(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, "tie", func() { got = append(got, i) })
	}
	s.Run(time.Second)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events out of scheduling order: %v", got)
		}
	}
}

func TestSchedulerClockAdvances(t *testing.T) {
	s := NewScheduler(1)
	var at time.Duration
	s.After(42*time.Millisecond, "probe", func() { at = s.Now() })
	s.Run(time.Second)
	if at != 42*time.Millisecond {
		t.Fatalf("clock at event = %v, want 42ms", at)
	}
	if s.Now() != time.Second {
		t.Fatalf("clock after Run = %v, want horizon 1s", s.Now())
	}
}

func TestSchedulerHorizonStopsEarly(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.After(2*time.Second, "late", func() { fired = true })
	s.Run(time.Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	// A second Run with a larger horizon picks the event up.
	s.Run(3 * time.Second)
	if !fired {
		t.Fatal("event not fired after horizon extension")
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var order []string
	s.After(10*time.Millisecond, "outer", func() {
		order = append(order, "outer")
		s.After(5*time.Millisecond, "inner", func() {
			order = append(order, "inner")
		})
	})
	s.Run(time.Second)
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v", order)
	}
}

func TestSchedulerPastRejected(t *testing.T) {
	s := NewScheduler(1)
	s.After(10*time.Millisecond, "tick", func() {
		if _, err := s.At(5*time.Millisecond, "past", func() {}); err == nil {
			t.Error("scheduling in the past succeeded")
		}
	})
	s.Run(time.Second)
}

func TestSchedulerNilFuncRejected(t *testing.T) {
	s := NewScheduler(1)
	if _, err := s.At(0, "nil", nil); err == nil {
		t.Fatal("nil event func accepted")
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(10*time.Millisecond, "cancel-me", func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer = false")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true")
	}
	s.Run(time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler(1)
	tm := s.After(1*time.Millisecond, "quick", func() {})
	s.Run(time.Second)
	if s.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", s.Fired())
	}
	if tm.Stop() {
		t.Fatal("Stop on an already-fired timer = true")
	}
	rep, err := s.Every(s.Now(), time.Hour, "once", func() {})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + time.Minute)
	if !rep.Stop() {
		t.Fatal("Repeat.Stop with the next occurrence pending = false")
	}
	if rep.Stop() {
		t.Fatal("second Repeat.Stop = true")
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, "n", func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	err := s.Run(time.Second)
	if err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestRunAllBounded(t *testing.T) {
	s := NewScheduler(1)
	// Self-perpetuating event chain: would run forever without a bound.
	var tick func()
	tick = func() { s.After(time.Millisecond, "tick", tick) }
	s.After(0, "start", tick)
	n := s.RunAll(100)
	if n != 100 {
		t.Fatalf("RunAll executed %d, want 100", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []time.Duration {
		s := NewScheduler(seed)
		var log []time.Duration
		for i := 0; i < 50; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.After(d, "jitter", func() { log = append(log, s.Now()) })
		}
		s.Run(2 * time.Second)
		return log
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// Property: whatever mix of At, After, Schedule, bursts, nested scheduling,
// Every, Event.Stop, Scheduler.Stop, Run, RunAll and Step a script drives,
// events fire in the order a stable sort on (At, Seq) gives, with the
// model's clock, fired count and queue length after every operation.
func TestPropEventsFireSorted(t *testing.T) {
	f := func(script []byte) bool {
		got, want := runScript(newRealSched(), script), runScript(&refSched{}, script)
		if got != want {
			t.Logf("script %x\nscheduler: %s\nreference: %s", script, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
