package simnet

import (
	"testing"
	"time"

	"repro/internal/sim"
)

type recorder struct {
	got []any
}

func (r *recorder) HandleMessage(_ NodeID, msg any) { r.got = append(r.got, msg) }

func newNet(t *testing.T, latency LatencyModel, drop float64) (*Network, *sim.Scheduler) {
	t.Helper()
	sched := sim.NewScheduler(1)
	n, err := New(sched, latency, drop)
	if err != nil {
		t.Fatal(err)
	}
	return n, sched
}

func TestNewValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	if _, err := New(nil, FixedLatency(0), 0); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := New(sched, nil, 0); err == nil {
		t.Fatal("nil latency accepted")
	}
	if _, err := New(sched, FixedLatency(0), 1.0); err == nil {
		t.Fatal("drop rate 1.0 accepted")
	}
	if _, err := New(sched, FixedLatency(0), -0.1); err == nil {
		t.Fatal("negative drop rate accepted")
	}
}

func TestSendDelivers(t *testing.T) {
	n, sched := newNet(t, FixedLatency(10*time.Millisecond), 0)
	r := &recorder{}
	if err := n.Register(2, r); err != nil {
		t.Fatal(err)
	}
	n.Register(1, &recorder{})
	n.Send(1, 2, "hello")
	sched.Run(time.Second)
	if len(r.got) != 1 || r.got[0] != "hello" {
		t.Fatalf("got %v", r.got)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRegisterNil(t *testing.T) {
	n, _ := newNet(t, FixedLatency(0), 0)
	if err := n.Register(1, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestSendToUnknown(t *testing.T) {
	n, sched := newNet(t, FixedLatency(0), 0)
	n.Register(1, &recorder{})
	n.Send(1, 99, "void")
	sched.Run(time.Second)
	if n.Stats().Unknown != 1 {
		t.Fatalf("unknown = %d, want 1", n.Stats().Unknown)
	}
}

func TestLatencyOrdersDelivery(t *testing.T) {
	n, sched := newNet(t, FixedLatency(5*time.Millisecond), 0)
	r := &recorder{}
	n.Register(1, &recorder{})
	n.Register(2, r)
	var deliveredAt time.Duration
	n.Register(3, HandlerFunc(func(_ NodeID, _ any) { deliveredAt = sched.Now() }))
	n.Send(1, 3, "timed")
	sched.Run(time.Second)
	if deliveredAt != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", deliveredAt)
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	sched := sim.NewScheduler(3)
	l := UniformLatency{Min: 2 * time.Millisecond, Max: 8 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := l.Sample(sched.Rand(), 0, 1)
		if d < l.Min || d > l.Max {
			t.Fatalf("sample %v out of bounds", d)
		}
	}
	// Degenerate bounds return Min.
	deg := UniformLatency{Min: 5 * time.Millisecond, Max: 5 * time.Millisecond}
	if got := deg.Sample(sched.Rand(), 0, 1); got != 5*time.Millisecond {
		t.Fatalf("degenerate sample = %v", got)
	}
}

func TestDropRateLosesMessages(t *testing.T) {
	n, sched := newNet(t, FixedLatency(0), 0.5)
	r := &recorder{}
	n.Register(1, &recorder{})
	n.Register(2, r)
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send(1, 2, i)
	}
	sched.Run(time.Second)
	st := n.Stats()
	if st.Dropped == 0 || st.Delivered == 0 {
		t.Fatalf("stats = %+v, want both drops and deliveries", st)
	}
	if st.Dropped+st.Delivered != total {
		t.Fatalf("conservation violated: %+v", st)
	}
	// Roughly half dropped (binomial, generous bounds).
	if st.Dropped < total/4 || st.Dropped > 3*total/4 {
		t.Fatalf("dropped = %d of %d, outside plausible range", st.Dropped, total)
	}
}

func TestNodeDownBlocksTraffic(t *testing.T) {
	n, sched := newNet(t, FixedLatency(0), 0)
	r := &recorder{}
	n.Register(1, &recorder{})
	n.Register(2, r)
	n.SetDown(2, true)
	n.Send(1, 2, "lost")
	sched.Run(time.Second)
	if len(r.got) != 0 {
		t.Fatal("crashed node received a message")
	}
	if !n.IsDown(2) {
		t.Fatal("IsDown = false")
	}
	n.SetDown(2, false)
	n.Send(1, 2, "found")
	sched.Run(2 * time.Second)
	if len(r.got) != 1 {
		t.Fatalf("recovered node got %d messages, want 1", len(r.got))
	}
}

func TestNodeCrashWhileInFlight(t *testing.T) {
	n, sched := newNet(t, FixedLatency(10*time.Millisecond), 0)
	r := &recorder{}
	n.Register(1, &recorder{})
	n.Register(2, r)
	n.Send(1, 2, "in-flight")
	// Crash the destination before delivery.
	sched.After(5*time.Millisecond, "crash", func() { n.SetDown(2, true) })
	sched.Run(time.Second)
	if len(r.got) != 0 {
		t.Fatal("message delivered to node that crashed mid-flight")
	}
}

func TestPartitions(t *testing.T) {
	n, sched := newNet(t, FixedLatency(0), 0)
	a, b := &recorder{}, &recorder{}
	n.Register(1, a)
	n.Register(2, b)
	n.Register(3, &recorder{})
	n.SetPartitions([]NodeID{1}, []NodeID{2})
	n.Send(1, 2, "blocked")
	n.Send(2, 1, "blocked")
	sched.Run(time.Second)
	if len(a.got)+len(b.got) != 0 {
		t.Fatal("partitioned nodes exchanged messages")
	}
	if n.Stats().Partition != 2 {
		t.Fatalf("partition count = %d", n.Stats().Partition)
	}
	// Node 3 is in implicit group 0, separate from both.
	n.Send(1, 3, "blocked too")
	sched.Run(2 * time.Second)
	if n.Stats().Partition != 3 {
		t.Fatalf("partition count = %d, want 3", n.Stats().Partition)
	}
	// Healing restores connectivity.
	n.SetPartitions()
	n.Send(1, 2, "healed")
	sched.Run(3 * time.Second)
	if len(b.got) != 1 {
		t.Fatal("healed partition still blocking")
	}
}

func TestFiltersDrop(t *testing.T) {
	n, sched := newNet(t, FixedLatency(0), 0)
	r := &recorder{}
	n.Register(1, &recorder{})
	n.Register(2, r)
	n.AddFilter(func(_, _ NodeID, msg any) Verdict {
		if msg == "evil" {
			return Drop
		}
		return Pass
	})
	n.AddFilter(nil) // ignored
	n.Send(1, 2, "evil")
	n.Send(1, 2, "good")
	sched.Run(time.Second)
	if len(r.got) != 1 || r.got[0] != "good" {
		t.Fatalf("got %v", r.got)
	}
	if n.Stats().Intercepts != 1 {
		t.Fatalf("intercepts = %d", n.Stats().Intercepts)
	}
}

func TestBroadcastExcludesSender(t *testing.T) {
	n, sched := newNet(t, FixedLatency(0), 0)
	rs := make([]*recorder, 4)
	for i := range rs {
		rs[i] = &recorder{}
		n.Register(NodeID(i), rs[i])
	}
	n.Broadcast(0, "all")
	sched.Run(time.Second)
	if len(rs[0].got) != 0 {
		t.Fatal("sender received own broadcast")
	}
	for i := 1; i < 4; i++ {
		if len(rs[i].got) != 1 {
			t.Fatalf("node %d got %d messages", i, len(rs[i].got))
		}
	}
	if got := n.Stats().Sent; got != 3 {
		t.Fatalf("sent = %d, want 3", got)
	}
}

func TestPerNodeStats(t *testing.T) {
	n, sched := newNet(t, FixedLatency(0), 0)
	n.Register(1, &recorder{})
	n.Register(2, &recorder{})
	n.Send(1, 2, "x")
	n.Send(1, 2, "y")
	sched.Run(time.Second)
	if s := n.row(1).stats; s.Sent != 2 {
		t.Fatalf("node1 sent = %d", s.Sent)
	}
	if s := n.row(2).stats; s.Delivered != 2 {
		t.Fatalf("node2 delivered = %d", s.Delivered)
	}
	if s := n.row(99).stats; s.Sent != 0 {
		t.Fatal("unknown node has stats")
	}
}

func TestNodesList(t *testing.T) {
	n, _ := newNet(t, FixedLatency(0), 0)
	n.Register(5, &recorder{})
	n.Register(7, &recorder{})
	ids := n.ids
	if len(ids) != 2 {
		t.Fatalf("nodes = %v", ids)
	}
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() []any {
		sched := sim.NewScheduler(99)
		n, _ := New(sched, UniformLatency{Min: time.Millisecond, Max: 20 * time.Millisecond}, 0.1)
		r := &recorder{}
		n.Register(0, &recorder{})
		n.Register(1, r)
		for i := 0; i < 100; i++ {
			n.Send(0, 1, i)
		}
		sched.Run(time.Second)
		return r.got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d", i)
		}
	}
}

// TestNodeTable covers the per-node table's edges: ids it has no row for
// read as a node nobody mentioned, rows appear for crashed or partitioned
// ids that never registered, and negative ids are refused where an error
// can say so and ignored where none can.
func TestNodeTable(t *testing.T) {
	n, sched := newNet(t, FixedLatency(0), 0)
	r := &recorder{}
	if err := n.Register(-1, r); err == nil {
		t.Error("negative id registered")
	}
	if err := n.SetLinkFault(-1, 0, Fault{Drop: 0.5}); err == nil {
		t.Error("fault on a link from a negative id accepted")
	}
	if err := n.SetLinkFault(0, -1, Fault{Drop: 0.5}); err == nil {
		t.Error("fault on a link to a negative id accepted")
	}
	n.Register(1, r)
	n.SetDown(-1, true) // both used to index the table with the negative id
	n.SetPartitions([]NodeID{-3}, []NodeID{-1, 1})
	n.SetPartitions()
	if n.IsDown(500) || n.IsDown(-3) || n.IsDown(-1) {
		t.Error("an id beyond the table reads as down")
	}
	if n.row(500).faultTo(1) != (Fault{}) {
		t.Error("an id beyond the table has a link fault")
	}
	n.SetDown(40, true) // never registered: a row, but no stats and no handler
	n.Send(1, 40, "to a crashed stranger")
	n.Send(40, 1, "from a crashed stranger")
	n.SetDown(40, false)
	n.SetPartitions([]NodeID{1}, []NodeID{60})
	n.Send(60, 1, "across the cut")
	n.SetPartitions()
	n.Send(60, 1, "stranger to node")
	n.Send(1, 60, "node to stranger")
	sched.Run(time.Second)
	want := Stats{Sent: 5, NodeDown: 2, Partition: 1, Delivered: 1, Unknown: 1}
	if got := n.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	if got := n.row(40).stats; got != (Stats{}) {
		t.Errorf("unregistered node 40 has stats %+v", got)
	}
	if got := n.row(1).stats; got.Sent != 2 || got.Delivered != 1 {
		t.Errorf("node 1 stats = %+v, want 2 sent, 1 delivered", got)
	}
	if len(r.got) != 1 || r.got[0] != "stranger to node" {
		t.Errorf("node 1 received %v", r.got)
	}
}

// TestSendAllocations pins the wire's steady-state cost: nothing. A warm
// network takes its delivery record from the free list, so neither a Send
// nor a whole Broadcast and its deliveries allocate — no record, event,
// closure or label.
func TestSendAllocations(t *testing.T) {
	n, sched := newNet(t, FixedLatency(time.Millisecond), 0)
	sink := HandlerFunc(func(NodeID, any) {})
	for id := NodeID(0); id < 8; id++ {
		n.Register(id, sink)
	}
	if err := n.SetLinkFault(0, 1, Fault{ExtraLatency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var msg any = "boxed once, outside the measurement"
	for _, link := range [][2]NodeID{{1, 0}, {0, 1}} { // clean, then faulty
		from, to := link[0], link[1]
		if got := testing.AllocsPerRun(1000, func() {
			n.Send(from, to, msg)
			sched.Step()
		}); got != 0 {
			t.Errorf("Send %d->%d + delivery allocates %.0f objects, want 0", from, to, got)
		}
	}
	if got := testing.AllocsPerRun(1000, func() {
		n.Broadcast(2, msg)
		sched.RunAll(0)
	}); got != 0 {
		t.Errorf("Broadcast + 7 deliveries allocates %.0f objects, want 0", got)
	}
	if s := n.Stats(); s.Delivered != s.Sent || s.Sent != 2002+7*1001 {
		t.Errorf("stats = %+v, want %d sent and delivered", s, 2002+7*1001)
	}
}
