package simnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestFaultValidation(t *testing.T) {
	n, _ := newNet(t, FixedLatency(0), 0)
	bad := []Fault{
		{Drop: -0.1},
		{Drop: 1.0},
		{ExtraLatency: -time.Millisecond},
		{Jitter: -time.Millisecond},
		{Duplicate: -0.1},
		{Duplicate: 1.1},
		{Reorder: -0.1},
		{Reorder: 1.1},
	}
	for i, f := range bad {
		if err := n.SetLinkFault(0, 1, f); err == nil {
			t.Fatalf("bad fault %d (%+v) accepted", i, f)
		}
	}
	if err := n.SetLinkFault(0, 1, Fault{Drop: 0.5, Duplicate: 1, Reorder: 1}); err != nil {
		t.Fatal(err)
	}
	if n.row(0).faultTo(1) == (Fault{}) {
		t.Fatal("installed fault not reported")
	}
	// The zero fault clears.
	if err := n.SetLinkFault(0, 1, Fault{}); err != nil {
		t.Fatal(err)
	}
	if n.row(0).faultTo(1) != (Fault{}) {
		t.Fatal("cleared fault still reported")
	}
}

func TestSetDropRateRuntime(t *testing.T) {
	n, sched := newNet(t, FixedLatency(0), 0)
	if err := n.SetDropRate(1.0); err == nil {
		t.Fatal("drop rate 1.0 accepted")
	}
	if err := n.SetDropRate(-0.1); err == nil {
		t.Fatal("negative drop rate accepted")
	}
	r := &recorder{}
	n.Register(0, &recorder{})
	n.Register(1, r)
	n.Send(0, 1, "clean")
	if err := n.SetDropRate(0.999); err != nil {
		t.Fatal(err)
	}
	if n.dropRate != 0.999 {
		t.Fatalf("drop rate = %v", n.dropRate)
	}
	for i := 0; i < 50; i++ {
		n.Send(0, 1, i)
	}
	sched.Run(time.Second)
	if len(r.got) == 0 || r.got[0] != "clean" {
		t.Fatalf("pre-degradation message lost: %v", r.got)
	}
	if n.Stats().Dropped == 0 {
		t.Fatal("runtime drop rate had no effect")
	}
}

func TestLinkFaultDrop(t *testing.T) {
	n, sched := newNet(t, FixedLatency(0), 0)
	r := &recorder{}
	n.Register(0, &recorder{})
	n.Register(1, r)
	if err := n.SetLinkFault(0, 1, Fault{Drop: 0.5}); err != nil {
		t.Fatal(err)
	}
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send(0, 1, i)
	}
	// The reverse link is clean: direction matters.
	n.Send(1, 0, "back")
	sched.Run(time.Second)
	st := n.Stats()
	if st.LinkDropped == 0 {
		t.Fatal("no link drops")
	}
	if st.Dropped != 0 {
		t.Fatalf("link drops miscounted as global drops: %+v", st)
	}
	if st.LinkDropped+st.Delivered != total+1 {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.LinkDropped < total/4 || st.LinkDropped > 3*total/4 {
		t.Fatalf("link dropped = %d of %d, outside plausible range", st.LinkDropped, total)
	}
}

func TestLinkFaultExtraLatencyAndJitter(t *testing.T) {
	n, sched := newNet(t, FixedLatency(5*time.Millisecond), 0)
	var at []time.Duration
	n.Register(0, &recorder{})
	n.Register(1, HandlerFunc(func(_ NodeID, _ any) { at = append(at, sched.Now()) }))
	if err := n.SetLinkFault(0, 1, Fault{ExtraLatency: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	n.Send(0, 1, "slow")
	sched.Run(time.Second)
	if len(at) != 1 || at[0] != 25*time.Millisecond {
		t.Fatalf("delivered at %v, want exactly 25ms", at)
	}
	// Jitter bounds: every delivery lands in [base+extra, base+extra+jitter].
	if err := n.SetLinkFault(0, 1, Fault{ExtraLatency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	at = nil
	start := sched.Now()
	for i := 0; i < 200; i++ {
		n.Send(0, 1, i)
	}
	sched.Run(2 * time.Second)
	if len(at) != 200 {
		t.Fatalf("delivered %d of 200", len(at))
	}
	for _, ts := range at {
		d := ts - start
		if d < 25*time.Millisecond || d > 35*time.Millisecond {
			t.Fatalf("jittered delivery at +%v, want [25ms, 35ms]", d)
		}
	}
}

func TestLinkFaultDuplicate(t *testing.T) {
	n, sched := newNet(t, FixedLatency(time.Millisecond), 0)
	r := &recorder{}
	n.Register(0, &recorder{})
	n.Register(1, r)
	if err := n.SetLinkFault(0, 1, Fault{Duplicate: 1}); err != nil {
		t.Fatal(err)
	}
	const total = 10
	for i := 0; i < total; i++ {
		n.Send(0, 1, i)
	}
	sched.Run(time.Second)
	if len(r.got) != 2*total {
		t.Fatalf("got %d deliveries, want %d (every message doubled)", len(r.got), 2*total)
	}
	st := n.Stats()
	if st.Duplicated != total {
		t.Fatalf("duplicated = %d, want %d", st.Duplicated, total)
	}
	if st.Sent != total {
		t.Fatalf("sent = %d: duplicates must not count as sends", st.Sent)
	}
}

func TestLinkFaultReorder(t *testing.T) {
	n, sched := newNet(t, FixedLatency(5*time.Millisecond), 0)
	r := &recorder{}
	n.Register(0, &recorder{})
	n.Register(1, r)
	if err := n.SetLinkFault(0, 1, Fault{Reorder: 0.5}); err != nil {
		t.Fatal(err)
	}
	const total = 200
	for i := 0; i < total; i++ {
		// Space the sends so held-back messages can actually be overtaken.
		i := i
		sched.After(time.Duration(i)*time.Millisecond, "send", func() { n.Send(0, 1, i) })
	}
	sched.Run(5 * time.Second)
	if len(r.got) != total {
		t.Fatalf("delivered %d of %d", len(r.got), total)
	}
	if n.Stats().Reordered == 0 {
		t.Fatal("no reorders recorded")
	}
	inverted := 0
	for i := 1; i < len(r.got); i++ {
		if r.got[i].(int) < r.got[i-1].(int) {
			inverted++
		}
	}
	if inverted == 0 {
		t.Fatal("reorder fault never changed delivery order")
	}
}

// faultRun drives a fixed faulty workload and returns the full delivery
// transcript (receiver, virtual time, payload) plus final Stats.
func faultRun(seed int64) (string, Stats) {
	sched := sim.NewScheduler(seed)
	n, err := New(sched, UniformLatency{Min: time.Millisecond, Max: 20 * time.Millisecond}, 0.05)
	if err != nil {
		panic(err)
	}
	transcript := ""
	for id := 0; id < 4; id++ {
		id := id
		if err := n.Register(NodeID(id), HandlerFunc(func(from NodeID, msg any) {
			transcript += fmt.Sprintf("%v %d<-%d %v\n", sched.Now(), id, from, msg)
		})); err != nil {
			panic(err)
		}
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(n.SetLinkFault(0, 1, Fault{Drop: 0.2, Jitter: 8 * time.Millisecond}))
	must(n.SetLinkFault(1, 2, Fault{Duplicate: 0.5, ExtraLatency: 3 * time.Millisecond}))
	must(n.SetLinkFault(2, 3, Fault{Reorder: 0.7}))
	for i := 0; i < 100; i++ {
		i := i
		sched.After(time.Duration(i)*2*time.Millisecond, "burst", func() {
			n.Broadcast(NodeID(i%4), i)
		})
	}
	// Mid-run mutation is part of the workload: degrade, then heal.
	sched.After(80*time.Millisecond, "degrade", func() {
		must(n.SetDropRate(0.3))
		must(n.SetLinkFault(3, 0, Fault{Drop: 0.4, Duplicate: 0.3, Reorder: 0.3, Jitter: 4 * time.Millisecond}))
	})
	sched.After(150*time.Millisecond, "heal", func() {
		must(n.SetDropRate(0.05))
		must(n.SetLinkFault(3, 0, Fault{}))
	})
	sched.Run(2 * time.Second)
	return transcript, n.Stats()
}

func TestFaultDeterminism(t *testing.T) {
	wantTranscript, wantStats := faultRun(42)
	if wantStats.Duplicated == 0 || wantStats.Reordered == 0 || wantStats.LinkDropped == 0 {
		t.Fatalf("workload failed to exercise all fault modes: %+v", wantStats)
	}
	for i := 0; i < 3; i++ {
		tr, st := faultRun(42)
		if tr != wantTranscript {
			t.Fatalf("run %d transcript diverged", i)
		}
		if st != wantStats {
			t.Fatalf("run %d stats diverged: %+v vs %+v", i, st, wantStats)
		}
	}
	if tr, _ := faultRun(43); tr == wantTranscript {
		t.Fatal("different seeds produced identical transcripts")
	}
}

// TestFaultDeterminismParallel replays the faulty workload from many
// goroutines at once: schedulers are independent, so concurrent runs (any
// -parallel setting) must still be byte-identical.
func TestFaultDeterminismParallel(t *testing.T) {
	wantTranscript, wantStats := faultRun(7)
	for w := 0; w < 8; w++ {
		w := w
		t.Run(fmt.Sprintf("worker-%d", w), func(t *testing.T) {
			t.Parallel()
			tr, st := faultRun(7)
			if tr != wantTranscript {
				t.Fatal("parallel transcript diverged")
			}
			if st != wantStats {
				t.Fatalf("parallel stats diverged: %+v vs %+v", st, wantStats)
			}
		})
	}
}
