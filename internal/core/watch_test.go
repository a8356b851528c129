package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/registry"
)

// TestVirtualTimeAdvance checks the clock's monotone semantics.
func TestVirtualTimeAdvance(t *testing.T) {
	vt := NewVirtualTime()
	if vt.Now() != 0 {
		t.Fatalf("fresh clock at %v", vt.Now())
	}
	if got := vt.Advance(10 * time.Second); got != 10*time.Second {
		t.Fatalf("Advance returned %v", got)
	}
	if got := vt.Advance(-time.Second); got != 10*time.Second {
		t.Fatalf("negative Advance moved the clock to %v", got)
	}
	if got := vt.AdvanceTo(5 * time.Second); got != 10*time.Second {
		t.Fatalf("AdvanceTo moved the clock backwards to %v", got)
	}
	if got := vt.AdvanceTo(30 * time.Second); got != 30*time.Second {
		t.Fatalf("AdvanceTo returned %v", got)
	}
}

// TestWatchVirtualTimePacing is the fix for the wall-ticker bug: with
// WithVirtualTime, Watch emissions land exactly on virtual interval
// boundaries, paced by Advance — no wall ticker, no wall-time dependence.
// The driver advances 35s past three 10s boundaries; the stream must emit
// at 0s (immediate), 10s, 20s, 30s and then block.
func TestWatchVirtualTimePacing(t *testing.T) {
	reg := testRegistry(t)
	vt := NewVirtualTime()
	mon, err := NewMonitor(reg,
		WithCatalog(debianVuln()),
		WithVirtualTime(vt),
		WithWatchInterval(10*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := mon.Watch(ctx)

	first := <-stream
	if first.At != 0 {
		t.Fatalf("first emission at %v, want 0", first.At)
	}
	vt.Advance(35 * time.Second)
	for _, want := range []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second} {
		select {
		case a := <-stream:
			if a.At != want {
				t.Fatalf("emission at %v, want %v", a.At, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no emission for boundary %v", want)
		}
	}
	// 35s < next boundary 40s: the stream must be quiescent now.
	select {
	case a := <-stream:
		t.Fatalf("unexpected emission at %v before the 40s boundary", a.At)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	for range stream {
	}
}

// TestWatchChurnDuringStream: registry mutation while a stream is live is
// supported — each emission reflects the membership at the moment it was
// assessed, with mutations applied between reads deterministically
// visible in the next boundary's emission.
func TestWatchChurnDuringStream(t *testing.T) {
	reg := testRegistry(t) // 5 replicas, 100 power
	vt := NewVirtualTime()
	mon, err := NewMonitor(reg,
		WithVirtualTime(vt),
		WithWatchInterval(time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := mon.Watch(ctx)

	a := <-stream
	if a.Diversity.Members != 5 {
		t.Fatalf("first emission sees %d members, want 5", a.Diversity.Members)
	}
	// The stream is now blocked on the 1s boundary: mutate, then advance.
	if err := reg.JoinDeclared("late", osCfg("netbsd"), 50, 0); err != nil {
		t.Fatal(err)
	}
	vt.Advance(time.Second)
	a = <-stream
	if a.Diversity.Members != 6 {
		t.Fatalf("post-join emission sees %d members, want 6", a.Diversity.Members)
	}
	if err := reg.Leave("late"); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetPower("r1", 5); err != nil {
		t.Fatal(err)
	}
	vt.Advance(time.Second)
	a = <-stream
	if a.Diversity.Members != 5 {
		t.Fatalf("post-leave emission sees %d members, want 5", a.Diversity.Members)
	}
}

// TestWatchStopsTickSourceOnAssessFailure: when a mid-stream assessment
// fails (here: the whole membership leaves, emptying the population), the
// stream closes AND the tick-source goroutine shuts down even though the
// caller never cancels its context.
func TestWatchStopsTickSourceOnAssessFailure(t *testing.T) {
	reg := registry.New(nil)
	if err := reg.JoinDeclared("solo", osCfg("debian"), 10, 0); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	vt := NewVirtualTime()
	mon, err := NewMonitor(reg, WithVirtualTime(vt), WithWatchInterval(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	stream := mon.Watch(context.Background())
	if a := <-stream; a.Diversity.Members != 1 {
		t.Fatalf("first emission sees %d members", a.Diversity.Members)
	}
	if err := reg.Leave("solo"); err != nil {
		t.Fatal(err)
	}
	vt.Advance(time.Second)
	if _, open := <-stream; open {
		t.Fatal("stream still open after assessment failure")
	}
	// The tick-source goroutine must wind down without any ctx cancel.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("tick source leaked: %d goroutines, started with %d", n, before)
	}
}

// TestWatchWallDefaultStillWorks: without a virtual time source the
// stream still paces on the wall ticker and stamps instants from the
// clock (the pre-existing behaviour, kept for wall deployments).
func TestWatchWallDefaultStillWorks(t *testing.T) {
	reg := testRegistry(t)
	mon, err := NewMonitor(reg, WithWatchInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	for range mon.Watch(ctx) {
		n++
		if n == 3 {
			cancel()
		}
	}
	if n < 3 {
		t.Fatalf("saw %d emissions, want >= 3", n)
	}
}
