package monitord

import (
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
)

// recorder collects emission instants from one subscriber goroutine while
// the driver polls progress — mutex-guarded so -race stays quiet.
type recorder struct {
	mu sync.Mutex
	at []time.Duration
}

func (r *recorder) add(d time.Duration) {
	r.mu.Lock()
	r.at = append(r.at, d)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.at)
}

func (r *recorder) snapshot() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.at...)
}

// TestWatchersShareOneComputationPerGeneration is the acceptance proof for
// the service's concurrency model, run under -race in CI: N concurrent
// watch subscribers plus M concurrent readers on one tenant trigger
// exactly one assessment computation (diversity report + exposure index
// rebuild) per registry generation — everything else is served from the
// monitor's per-snapshot cache through the tenant's one watch loop.
func TestWatchersShareOneComputationPerGeneration(t *testing.T) {
	const (
		watchers    = 8
		readers     = 4
		generations = 5
		ticksPerGen = 3
	)
	mgr := NewManager()
	defer mgr.Close()
	spec := testSpec()
	spec.WatchInterval = Duration(time.Hour)
	tenant, err := mgr.Create("shared", spec)
	if err != nil {
		t.Fatal(err)
	}

	// Attach N subscribers to the hub; all ride one watch loop. The
	// first is subscribed alone and its initial emission awaited, which
	// pins the stream's start instant at t=0 before the others — or any
	// mutation — can race the loop's startup; the remaining
	// N-1 then see every tick from 1h on.
	type sub struct {
		id int
		ch <-chan core.Assessment
	}
	subs := make([]sub, watchers)
	seen := make([]*recorder, watchers)
	var wg sync.WaitGroup
	drain := func(rec *recorder, ch <-chan core.Assessment) {
		defer wg.Done()
		for a := range ch {
			rec.add(a.At)
		}
	}
	for i := range subs {
		id, ch, err := tenant.hub.subscribe()
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub{id, ch}
		seen[i] = &recorder{}
		wg.Add(1)
		go drain(seen[i], ch)
		if i == 0 {
			waitFor(t, func() bool { return seen[0].len() == 1 })
		}
	}

	// M concurrent readers hammer Assess at the current instant while the
	// clock and the membership move.
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for i := 0; i < readers; i++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tenant.Monitor.Assess(tenant.Now()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Drive G generations: one mutation each, then several watch ticks on
	// the unchanged membership.
	baseGen := tenant.Registry.Generation()
	for g := 0; g < generations; g++ {
		if err := tenant.Registry.SetPower("alice", float64(30+g+1)); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < ticksPerGen; k++ {
			if _, err := tenant.Advance(time.Hour); err != nil {
				t.Fatal(err)
			}
			// Let every subscriber observe the boundary before the next
			// advance so no one misses an emission to buffer overflow.
			ticks := g*ticksPerGen + k + 1
			for i := range seen {
				want := ticks
				if i == 0 {
					want++ // the probe also saw the initial emission
				}
				i, want := i, want
				waitFor(t, func() bool { return seen[i].len() >= want })
			}
		}
	}
	close(stop)
	readerWG.Wait()
	for _, sb := range subs {
		tenant.hub.unsubscribe(sb.id)
	}
	wg.Wait()

	if got := tenant.Registry.Generation() - baseGen; got != generations {
		t.Fatalf("registry advanced %d generations, want %d", got, generations)
	}
	// Every subscriber saw the same hourly timeline: the probe from t=0
	// (initial emission included), the rest every tick from 1h on.
	ticksTotal := generations * ticksPerGen
	for i := range seen {
		at := seen[i].snapshot()
		want := ticksTotal
		first := time.Hour
		if i == 0 {
			want++
			first = 0
		}
		if len(at) != want {
			t.Fatalf("subscriber %d: %d emissions, want %d", i, len(at), want)
		}
		for k, got := range at {
			if want := first + time.Duration(k)*time.Hour; got != want {
				t.Fatalf("subscriber %d emission %d at %v, want %v", i, k, got, want)
			}
		}
	}

	// The proof: across 8 watchers × 16 emissions and 4 readers' tight
	// Assess loops, the monitor computed exactly once per generation it
	// observed — one initial rebuild, then one O(Δ) delta-apply per
	// mutation, not once per watcher or per read.
	stats := tenant.Monitor.Stats()
	if stats.Rebuilds != 1 || stats.DeltaApplies != uint64(generations) {
		t.Fatalf("%d rebuilds / %d delta-applies for %d generations (%d watchers, %d readers): want 1 / %d; stats=%+v",
			stats.Rebuilds, stats.DeltaApplies, generations, watchers, readers, generations, stats)
	}
	if stats.Rebuilds == 0 || stats.Hits == 0 {
		t.Fatalf("implausible stats %+v", stats)
	}
	events, dropped := tenant.hub.stats()
	if dropped != 0 {
		t.Fatalf("%d dropped deliveries in a paced test", dropped)
	}
	if want := uint64(1 + ticksTotal); events != want {
		t.Fatalf("hub broadcast %d events, want %d", events, want)
	}
}

// TestHubLazyStartStop: the watch loop runs only while subscribers do, so
// idle tenants cost no watch goroutines, and a subscriber arriving after a
// stop gets a fresh loop.
func TestHubLazyStartStop(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	tenant, err := mgr.Create("lazy", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	h := tenant.hub
	if h.subscribers() != 0 {
		t.Fatal("fresh hub has subscribers")
	}
	statsBefore := tenant.Monitor.Stats()
	if statsBefore.Rebuilds != 0 {
		t.Fatalf("idle tenant assessed: %+v", statsBefore)
	}

	id1, ch1, err := h.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch1 // initial emission proves the stream started
	if a.At != 0 {
		t.Fatalf("initial emission at %v", a.At)
	}
	id2, ch2, err := h.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	h.unsubscribe(id1)
	if _, open := <-ch1; open {
		t.Fatal("unsubscribed channel not closed")
	}
	h.unsubscribe(id2)
	if h.subscribers() != 0 {
		t.Fatal("subscribers remain after unsubscribe")
	}
	// ch2 may still hold the initial emission; it must be closed after.
	for range ch2 {
	}

	// Re-subscribing restarts the stream.
	_, ch3, err := h.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case _, open := <-ch3:
		if !open {
			t.Fatal("restarted stream closed immediately")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("restarted stream emitted nothing")
	}
	h.close()
	if _, _, err := h.subscribe(); err == nil {
		t.Fatal("subscribe after close succeeded")
	}
}

// nextEmission receives one assessment from a subscriber, failing when the
// channel closes or nothing arrives within 5 s.
func nextEmission(t *testing.T, ch <-chan core.Assessment) core.Assessment {
	t.Helper()
	select {
	case a, open := <-ch:
		if !open {
			t.Fatal("subscriber closed")
		}
		return a
	case <-time.After(5 * time.Second):
		t.Fatal("no emission within 5s")
	}
	return core.Assessment{}
}

// expectQuiet fails if the subscriber receives anything within 20 ms.
func expectQuiet(t *testing.T, ch <-chan core.Assessment) {
	t.Helper()
	select {
	case a := <-ch:
		t.Fatalf("unexpected emission at %v", a.At)
	case <-time.After(20 * time.Millisecond):
	}
}

// settledGoroutines returns runtime.NumGoroutine once two readings 10 ms
// apart agree, so goroutines an earlier test left winding down (an HTTP
// connection's, say) are not counted against this one. It first closes the
// idle keep-alive connections earlier tests left in the default client,
// whose two goroutines each would otherwise end at any later moment.
func settledGoroutines() int {
	http.DefaultClient.CloseIdleConnections()
	n := runtime.NumGoroutine()
	for i := 0; i < 500; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// expectLoopEnded requires the hub's last watch loop to have returned:
// the last unsubscribe and close wait for it.
func expectLoopEnded(t *testing.T, h *hub, what string) {
	t.Helper()
	h.mu.Lock()
	done := h.done
	h.mu.Unlock()
	select {
	case <-done:
	default:
		t.Fatalf("%s: the watch loop is still running", what)
	}
}

// expectGoroutines requires the goroutine count to read exactly base+want.
// subscribe starts the loop before it returns, and the last unsubscribe
// and close return only once the loop has: all that can still be under
// way is the loop goroutine's own exit after its deferred close of done,
// so the count is read again for at most 100 ms, not the 5 s a loop that
// nobody waited for needed.
func expectGoroutines(t *testing.T, base, want int, what string) {
	t.Helper()
	got := runtime.NumGoroutine() - base
	for deadline := time.Now().Add(100 * time.Millisecond); got != want && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
		got = runtime.NumGoroutine() - base
	}
	if got != want {
		t.Fatalf("%s: %d goroutines more than before, want %d", what, got, want)
	}
}

func TestVirtualClockAdvance(t *testing.T) {
	vc := newVirtualClock()
	if vc.Now() != 0 {
		t.Fatalf("fresh clock at %v", vc.Now())
	}
	if got := vc.Advance(10 * time.Second); got != 10*time.Second {
		t.Fatalf("Advance returned %v", got)
	}
	if got := vc.Advance(-time.Second); got != 10*time.Second {
		t.Fatalf("negative Advance moved the clock to %v", got)
	}
	if got := vc.AdvanceTo(5 * time.Second); got != 10*time.Second {
		t.Fatalf("AdvanceTo moved the clock backwards to %v", got)
	}
	if got := vc.AdvanceTo(30 * time.Second); got != 30*time.Second {
		t.Fatalf("AdvanceTo returned %v", got)
	}
	stop := make(chan struct{})
	close(stop)
	if vc.waitUntil(31*time.Second, stop) || vc.waitUntil(time.Second, stop) {
		t.Fatal("waitUntil reported a target reached after stop closed")
	}
	if !vc.waitUntil(30*time.Second, nil) {
		t.Fatal("waitUntil missed the current instant")
	}
}

// TestHubEmitsAtVirtualBoundaries: a virtual tenant's watch emits at t=0,
// then exactly at each boundary start+k·interval the clock crosses — one
// advance across three boundaries emits all three — and nothing between.
func TestHubEmitsAtVirtualBoundaries(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	spec := testSpec()
	spec.WatchInterval = Duration(10 * time.Second)
	tenant, err := mgr.Create("paced", spec)
	if err != nil {
		t.Fatal(err)
	}
	id, ch, err := tenant.hub.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer tenant.hub.unsubscribe(id)
	if a := nextEmission(t, ch); a.At != 0 {
		t.Fatalf("first emission at %v, want 0", a.At)
	}
	if _, err := tenant.Advance(35 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, want := range []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second} {
		if a := nextEmission(t, ch); a.At != want {
			t.Fatalf("emission at %v, want %v", a.At, want)
		}
	}
	expectQuiet(t, ch) // 35s: the 40s boundary is not reached
	if _, err := tenant.AdvanceTo(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a := nextEmission(t, ch); a.At != 40*time.Second {
		t.Fatalf("emission at %v, want 40s", a.At)
	}
	expectQuiet(t, ch)
}

// TestHubChurnDuringStream: registry mutation while a watch is live, run
// under -race in CI. Mutations made before an advance show in the next
// boundary's emission; a writer racing the advances leaves every boundary
// emitted, each with a whole membership.
func TestHubChurnDuringStream(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	spec := testSpec()
	spec.WatchInterval = Duration(time.Second)
	tenant, err := mgr.Create("churn", spec)
	if err != nil {
		t.Fatal(err)
	}
	id, ch, err := tenant.hub.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer tenant.hub.unsubscribe(id)
	if a := nextEmission(t, ch); a.Diversity.Members != 5 {
		t.Fatalf("first emission sees %d members, want 5", a.Diversity.Members)
	}
	late := config.MustNew(config.Component{Class: config.ClassOperatingSystem, Name: "netbsd", Version: "10"})
	if err := tenant.Registry.JoinDeclared("late", late, 50, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tenant.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	if a := nextEmission(t, ch); a.Diversity.Members != 6 {
		t.Fatalf("post-join emission sees %d members, want 6", a.Diversity.Members)
	}
	if err := tenant.Registry.Leave("late"); err != nil {
		t.Fatal(err)
	}
	if err := tenant.Registry.SetPower("alice", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := tenant.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	if a := nextEmission(t, ch); a.Diversity.Members != 5 {
		t.Fatalf("post-leave emission sees %d members, want 5", a.Diversity.Members)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tenant.Registry.JoinDeclared("late", late, 50, 0); err != nil {
				t.Error(err)
				return
			}
			if err := tenant.Registry.Leave("late"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for k := 3; k < 23; k++ {
		if _, err := tenant.Advance(time.Second); err != nil {
			t.Fatal(err)
		}
		a := nextEmission(t, ch)
		if a.At != time.Duration(k)*time.Second {
			t.Fatalf("emission at %v, want %v", a.At, time.Duration(k)*time.Second)
		}
		if m := a.Diversity.Members; m != 5 && m != 6 {
			t.Fatalf("emission at %v sees %d members, want 5 or 6", a.At, m)
		}
	}
	close(stop)
	<-done
}

// TestHubAssessFailureClosesSubscribers: when an assessment fails (here
// the only replica leaves, emptying the population), every subscriber is
// closed and the loop ends without anyone unsubscribing.
func TestHubAssessFailureClosesSubscribers(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	spec := testSpec()
	spec.WatchInterval = Duration(time.Second)
	spec.Replicas = spec.Replicas[:1]
	tenant, err := mgr.Create("solo", spec)
	if err != nil {
		t.Fatal(err)
	}
	base := settledGoroutines()
	_, ch1, err := tenant.hub.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	_, ch2, err := tenant.hub.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	nextEmission(t, ch1)
	if err := tenant.Registry.Leave("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := tenant.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []<-chan core.Assessment{ch1, ch2} {
		deadline := time.After(5 * time.Second)
		for open := true; open; { // ch2 may still hold the first emission
			select {
			case _, open = <-ch:
			case <-deadline:
				t.Fatal("subscriber still open after the failed assessment")
			}
		}
	}
	if n := tenant.hub.subscribers(); n != 0 {
		t.Fatalf("%d subscribers left after the failure", n)
	}
	// The loop closed the subscribers on its way out; close waits for the
	// rest of the way.
	tenant.hub.close()
	expectLoopEnded(t, tenant.hub, "after a failed assessment")
	expectGoroutines(t, base, 0, "after a failed assessment")
}

// TestHubStreamsAndTerminates: a virtual tenant's stream carries each
// boundary's assessment at its instant — safe before the catalog's
// disclosure at 10 h, unsafe inside the window — and the last unsubscribe
// closes the subscriber and ends the loop.
func TestHubStreamsAndTerminates(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	spec := testSpec()
	spec.WatchInterval = Duration(5 * time.Hour)
	tenant, err := mgr.Create("stream", spec)
	if err != nil {
		t.Fatal(err)
	}
	base := settledGoroutines()
	id, ch, err := tenant.hub.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	if a := nextEmission(t, ch); a.At != 0 || !a.Safe {
		t.Fatalf("first emission at %v safe=%v, want 0 safe", a.At, a.Safe)
	}
	if _, err := tenant.Advance(10 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if a := nextEmission(t, ch); a.At != 5*time.Hour || !a.Safe {
		t.Fatalf("second emission at %v safe=%v, want 5h safe (pre-disclosure)", a.At, a.Safe)
	}
	if a := nextEmission(t, ch); a.At != 10*time.Hour || a.Safe {
		t.Fatalf("third emission at %v safe=%v, want 10h unsafe (inside the window)", a.At, a.Safe)
	}
	tenant.hub.unsubscribe(id)
	for open := true; open; { // closed by unsubscribe: drain what it buffered
		select {
		case _, open = <-ch:
		default:
			t.Fatal("subscriber still open after the last unsubscribe")
		}
	}
	expectLoopEnded(t, tenant.hub, "after the last unsubscribe")
	expectGoroutines(t, base, 0, "after the last unsubscribe")
}

// TestHubWallTicks: a wall tenant's watch ticks on a time.Ticker, each
// emission stamped with the tenant's clock, and the last unsubscribe ends
// the loop.
func TestHubWallTicks(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	spec := testSpec()
	spec.Virtual = false
	spec.WatchInterval = Duration(time.Millisecond)
	tenant, err := mgr.Create("wall", spec)
	if err != nil {
		t.Fatal(err)
	}
	base := settledGoroutines()
	id, ch, err := tenant.hub.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for i := 0; i < 3; i++ {
		a := nextEmission(t, ch)
		if a.At < last || a.At > tenant.Now() {
			t.Fatalf("emission %d at %v: after %v, tenant clock %v", i, a.At, last, tenant.Now())
		}
		last = a.At
	}
	if last == 0 {
		t.Fatal("wall ticks all stamped t=0")
	}
	tenant.hub.unsubscribe(id)
	for range ch {
	}
	expectGoroutines(t, base, 0, "after the last unsubscribe")
}

// TestHubOneGoroutinePerWatchedTenant: a watched tenant runs exactly one
// goroutine for its stream, however many subscribers it has, on a virtual
// and on a wall clock, and none once the last subscriber leaves — also
// right after a one-day advance at a 1 ms interval.
func TestHubOneGoroutinePerWatchedTenant(t *testing.T) {
	for _, virtual := range []bool{true, false} {
		mgr := NewManager()
		spec := testSpec()
		spec.Virtual = virtual
		spec.WatchInterval = Duration(time.Millisecond)
		tenant, err := mgr.Create("counted", spec)
		if err != nil {
			t.Fatal(err)
		}
		what := map[bool]string{true: "virtual", false: "wall"}[virtual]
		base := settledGoroutines()
		id1, ch, err := tenant.hub.subscribe()
		if err != nil {
			t.Fatal(err)
		}
		nextEmission(t, ch)
		expectGoroutines(t, base, 1, what+" tenant, one subscriber")
		id2, _, err := tenant.hub.subscribe()
		if err != nil {
			t.Fatal(err)
		}
		expectGoroutines(t, base, 1, what+" tenant, two subscribers")
		if virtual {
			if _, err := tenant.Advance(24 * time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		tenant.hub.unsubscribe(id1)
		tenant.hub.unsubscribe(id2)
		expectLoopEnded(t, tenant.hub, what+" tenant, unwatched")
		expectGoroutines(t, base, 0, what+" tenant, unwatched")
		mgr.Close()
	}
}

// TestHubLongAdvanceSkipsToLastBoundaries: one advance across 86 400 000
// boundaries (a day at a 1 ms interval) emits only the last
// subscriberBuffer of them and counts every other one as a drop for each
// subscriber; the loop is idle again within a second.
func TestHubLongAdvanceSkipsToLastBoundaries(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	spec := testSpec()
	spec.WatchInterval = Duration(time.Millisecond)
	tenant, err := mgr.Create("long", spec)
	if err != nil {
		t.Fatal(err)
	}
	id, ch, err := tenant.hub.subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer tenant.hub.unsubscribe(id)
	if a := nextEmission(t, ch); a.At != 0 {
		t.Fatalf("first emission at %v", a.At)
	}
	if _, err := tenant.Advance(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	const boundaries = 86_400_000 // 1 ms … 24 h
	deadline := time.Now().Add(time.Second)
	for {
		events, dropped := tenant.hub.stats()
		if events == 1+subscriberBuffer {
			if want := uint64(boundaries - subscriberBuffer); dropped != want {
				t.Fatalf("%d drops, want %d", dropped, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d events after 1 s, want %d", events, 1+subscriberBuffer)
		}
		time.Sleep(time.Millisecond)
	}
	for k := subscriberBuffer - 1; k >= 0; k-- {
		if a, want := nextEmission(t, ch), 24*time.Hour-time.Duration(k)*time.Millisecond; a.At != want {
			t.Fatalf("emission at %v, want %v", a.At, want)
		}
	}
	expectQuiet(t, ch)
}
