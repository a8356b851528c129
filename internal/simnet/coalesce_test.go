package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// wire is the network surface a programme drives, implemented by the real
// Network and by refNet, the reference it is checked against.
type wire interface {
	Register(id NodeID, h Handler) error
	SetDown(id NodeID, down bool)
	SetPartitions(groups ...[]NodeID)
	SetLinkFault(from, to NodeID, f Fault) error
	SetDropRate(rate float64) error
	AddFilter(f Filter)
	Send(from, to NodeID, msg any)
	Broadcast(from NodeID, msg any)
	Stats() Stats
	NodeStats(id NodeID) Stats
}

// refNet is the reference: the same send-time decisions in the same order
// with the same RNG draws, written over maps, and one scheduler event — a
// closure — per message in flight. It is what Network did before runs and
// is kept only here, as the thing coalescing must be indistinguishable from.
type refNet struct {
	sched    *sim.Scheduler
	latency  LatencyModel
	dropRate float64
	handlers map[NodeID]Handler
	down     map[NodeID]bool
	group    map[NodeID]int
	faults   map[[2]NodeID]Fault
	filters  []Filter
	stats    Stats
	perNode  map[NodeID]*Stats
}

func newRefNet(sched *sim.Scheduler, latency LatencyModel, dropRate float64) *refNet {
	return &refNet{
		sched: sched, latency: latency, dropRate: dropRate,
		handlers: map[NodeID]Handler{}, down: map[NodeID]bool{}, group: map[NodeID]int{},
		faults: map[[2]NodeID]Fault{}, perNode: map[NodeID]*Stats{},
	}
}

func (r *refNet) Register(id NodeID, h Handler) error {
	r.handlers[id] = h
	if r.perNode[id] == nil {
		r.perNode[id] = &Stats{}
	}
	return nil
}
func (r *refNet) SetDown(id NodeID, down bool) { r.down[id] = down }
func (r *refNet) SetLinkFault(from, to NodeID, f Fault) error {
	r.faults[[2]NodeID{from, to}] = f
	return nil
}
func (r *refNet) SetDropRate(rate float64) error { r.dropRate = rate; return nil }
func (r *refNet) AddFilter(f Filter)             { r.filters = append(r.filters, f) }
func (r *refNet) Stats() Stats                   { return r.stats }

func (r *refNet) NodeStats(id NodeID) Stats {
	if s := r.perNode[id]; s != nil {
		return *s
	}
	return Stats{}
}

func (r *refNet) SetPartitions(groups ...[]NodeID) {
	r.group = map[NodeID]int{}
	for g, ids := range groups {
		for _, id := range ids {
			r.group[id] = g + 1
		}
	}
}

func (r *refNet) Broadcast(from NodeID, msg any) {
	ids := make([]NodeID, 0, len(r.handlers))
	for id := range r.handlers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if id != from {
			r.Send(from, id, msg)
		}
	}
}

func (r *refNet) Send(from, to NodeID, msg any) {
	rng := r.sched.Rand()
	r.stats.Sent++
	if r.handlers[from] != nil {
		r.perNode[from].Sent++
	}
	if r.down[from] || r.down[to] {
		r.stats.NodeDown++
		return
	}
	if r.group[from] != r.group[to] {
		r.stats.Partition++
		return
	}
	for _, f := range r.filters {
		if f(from, to, msg) == Drop {
			r.stats.Intercepts++
			return
		}
	}
	if r.dropRate > 0 && rng.Float64() < r.dropRate {
		r.stats.Dropped++
		return
	}
	fault := r.faults[[2]NodeID{from, to}]
	if fault.Drop > 0 && rng.Float64() < fault.Drop {
		r.stats.LinkDropped++
		return
	}
	r.deliver(from, to, msg, fault)
	if fault.Duplicate > 0 && rng.Float64() < fault.Duplicate {
		r.stats.Duplicated++
		r.deliver(from, to, msg, fault)
	}
}

func (r *refNet) deliver(from, to NodeID, msg any, fault Fault) {
	rng := r.sched.Rand()
	delay := r.latency.Sample(rng, from, to) + fault.ExtraLatency
	if fault.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(fault.Jitter) + 1))
	}
	if fault.Reorder > 0 && rng.Float64() < fault.Reorder {
		holdback := max(int64(delay), int64(time.Millisecond))
		delay += time.Duration(rng.Int63n(holdback + 1))
		r.stats.Reordered++
	}
	r.sched.After(delay, "deliver", func() {
		switch h := r.handlers[to]; {
		case h == nil:
			r.stats.Unknown++
		case r.down[to]:
			r.stats.NodeDown++
		default:
			r.stats.Delivered++
			r.perNode[to].Delivered++
			h.HandleMessage(from, msg)
		}
	})
}

// progMsg is a programme's message: an id the handlers and filters branch
// on, and how many more times it may fan out.
type progMsg struct{ id, ttl int }

// received is one line of a programme's delivery log.
type received struct {
	at       time.Duration
	from, to NodeID
	msg      progMsg
}

// progResult is everything a programme lets an observer see.
type progResult struct {
	log     []received
	stats   Stats
	perNode []Stats
	fired   uint64
	draw    int64 // the scheduler RNG's next value: equal streams were consumed equally
}

// runProgramme drives one seeded random programme — a topology with
// degraded links, then broadcasts, sends and state changes at random
// instants, handlers and filters that send re-entrantly, and a driver that
// stops the scheduler after arbitrary event counts (so also between two
// deliveries of one run) to change state from outside — over the real
// network or the reference.
func runProgramme(seed int64, reference bool) progResult {
	const ms = time.Millisecond
	prng := rand.New(rand.NewSource(seed))
	sched := sim.NewScheduler(seed)
	var latency LatencyModel = FixedLatency(5 * ms)
	if prng.Intn(2) == 0 {
		// One to three distinct delays: runs form and split by chance.
		latency = UniformLatency{Min: 5 * ms, Max: 5*ms + time.Duration(prng.Intn(3))}
	}
	dropRate := []float64{0, 0, 0.15}[prng.Intn(3)]
	var w wire
	if reference {
		w = newRefNet(sched, latency, dropRate)
	} else {
		n, err := New(sched, latency, dropRate)
		if err != nil {
			panic(err)
		}
		w = n
	}

	var res progResult
	handler := func(self NodeID) Handler {
		return HandlerFunc(func(from NodeID, msg any) {
			m := msg.(progMsg)
			res.log = append(res.log, received{sched.Now(), from, self, m})
			if m.ttl == 0 {
				return
			}
			switch (m.id + int(self)) % 5 {
			case 0:
				w.Broadcast(self, progMsg{m.id*31 + int(self), m.ttl - 1})
			case 1:
				w.Send(self, from, progMsg{m.id*17 + int(self), m.ttl - 1})
			}
		})
	}
	nodes := 3 + prng.Intn(10)
	for id := 0; id < nodes; id++ {
		w.Register(NodeID(id), handler(NodeID(id)))
	}
	anyNode := func() NodeID { return NodeID(prng.Intn(nodes + 2)) } // two ids start unregistered

	faults := []Fault{
		{}, {Drop: 0.3}, {ExtraLatency: 2 * ms}, {Duplicate: 0.5}, {Reorder: 0.5},
		{Jitter: 1}, // half the draws land on the clean delay and stay in the run
		{Drop: 0.1, ExtraLatency: 1, Jitter: 2, Duplicate: 0.3, Reorder: 0.3},
	}
	anyFault := func() Fault { return faults[prng.Intn(len(faults))] }
	// A degraded link into the middle of the id order cuts a broadcast's
	// run in two (or not, when its delay happens to match).
	w.SetLinkFault(anyNode(), NodeID(nodes/2), faults[1+prng.Intn(len(faults)-1)])
	for k := prng.Intn(4); k > 0; k-- {
		w.SetLinkFault(anyNode(), anyNode(), anyFault())
	}
	addFilters := func() {
		w.AddFilter(func(_, to NodeID, msg any) Verdict {
			if (msg.(progMsg).id+int(to))%7 == 0 {
				return Drop
			}
			return Pass
		})
		// Re-sends, and sets a timer, in the middle of the sender's call.
		w.AddFilter(func(from, to NodeID, msg any) Verdict {
			if m := msg.(progMsg); m.ttl > 0 && (m.id+int(to))%3 == 0 {
				w.Send(to, from, progMsg{m.id*13 + 1, m.ttl - 1})
				sched.After(5*ms, "filter timer", func() { w.Send(from, to, progMsg{m.id*7 + 2, 0}) })
			}
			return Pass
		})
	}
	if prng.Intn(4) == 0 {
		addFilters()
	}

	nextID := 1
	newMsg := func() progMsg { nextID++; return progMsg{nextID * 101, prng.Intn(3)} }
	for ops := 6 + prng.Intn(12); ops > 0; ops-- {
		var op func()
		switch a, b, m, f := anyNode(), anyNode(), newMsg(), anyFault(); prng.Intn(12) {
		case 0, 1, 2, 3, 4:
			op = func() { w.Broadcast(a, m) }
		case 5:
			op = func() { w.Send(a, b, m) }
		case 6:
			down := prng.Intn(2) == 0
			op = func() { w.SetDown(a, down) }
		case 7:
			op = func() { w.Register(a, handler(a)) }
		case 8:
			cut := prng.Intn(nodes + 1)
			op = func() {
				var left, right []NodeID
				for id := 0; id < nodes; id++ {
					if id < cut {
						left = append(left, NodeID(id))
					} else {
						right = append(right, NodeID(id))
					}
				}
				w.SetPartitions(left, right)
			}
		case 9:
			op = func() { w.SetPartitions() }
		case 10:
			op = func() { w.SetLinkFault(a, b, f) }
		case 11:
			if prng.Intn(4) == 0 {
				op = addFilters
			} else {
				rate := []float64{0, 0.2}[prng.Intn(2)]
				op = func() { w.SetDropRate(rate) }
			}
		}
		if _, err := sched.At(time.Duration(prng.Intn(40))*ms, "op", op); err != nil {
			panic(err)
		}
	}

	for k := prng.Intn(5); k > 0; k-- {
		sched.RunAll(uint64(1 + prng.Intn(60)))
		switch a := anyNode(); prng.Intn(3) {
		case 0:
			w.SetDown(a, prng.Intn(2) == 0)
		case 1:
			w.Register(a, handler(a))
		case 2:
			w.Broadcast(a, newMsg())
		}
	}
	if err := sched.Run(time.Second); err != nil {
		panic(err)
	}
	res.stats = w.Stats()
	for id := NodeID(-1); id < NodeID(nodes+3); id++ {
		res.perNode = append(res.perNode, w.NodeStats(id))
	}
	res.fired, res.draw = sched.Fired(), sched.Rand().Int63()
	return res
}

// TestCoalescedMatchesOneEventPerMessage is the exactness claim: no
// programme can tell a run fired as a burst from one event per message.
func TestCoalescedMatchesOneEventPerMessage(t *testing.T) {
	var deliveries, hard int
	for seed := int64(1); seed <= 2500; seed++ {
		got, want := runProgramme(seed, false), runProgramme(seed, true)
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d deliveries, reference made %d", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: delivery %d of %d differs\nnetwork:   %+v\nreference: %+v",
					seed, i, len(want.log), got.log[i], want.log[i])
			}
		}
		if got.stats != want.stats || got.fired != want.fired || got.draw != want.draw {
			t.Fatalf("seed %d:\nnetwork:   %+v fired=%d draw=%d\nreference: %+v fired=%d draw=%d",
				seed, got.stats, got.fired, got.draw, want.stats, want.fired, want.draw)
		}
		if fmt.Sprint(got.perNode) != fmt.Sprint(want.perNode) {
			t.Fatalf("seed %d: node stats\nnetwork:   %+v\nreference: %+v", seed, got.perNode, want.perNode)
		}
		deliveries += len(want.log)
		if want.stats.Duplicated > 0 && want.stats.Reordered > 0 && want.stats.Intercepts > 0 {
			hard++
		}
	}
	// The generator must keep reaching the hard mixes, not only clean wires.
	if deliveries < 100_000 || hard < 50 {
		t.Errorf("programmes too tame: %d deliveries, %d cases with duplicates, reordering and filters together", deliveries, hard)
	}
}

// TestRecordNotReusedWhileHandling checks the free list's one rule: a
// record joins it only after its last handler has returned, so a handler
// that broadcasts from inside the last delivery gets a different record.
func TestRecordNotReusedWhileHandling(t *testing.T) {
	n, sched := newNet(t, FixedLatency(time.Millisecond), 0)
	var got []string
	for id := NodeID(0); id < 3; id++ {
		n.Register(id, HandlerFunc(func(from NodeID, msg any) {
			got = append(got, fmt.Sprintf("%d>%d %v", from, id, msg))
			if msg == "outer" {
				if len(n.free) != 0 {
					t.Errorf("node %d: the record being delivered is on the free list", id)
				}
				if id == 2 {
					n.Broadcast(2, "inner")
				}
			}
		}))
	}
	n.Broadcast(0, "warm")
	sched.RunAll(0)
	if len(n.free) != 1 {
		t.Fatalf("free list holds %d records after one broadcast, want 1", len(n.free))
	}
	first := n.free[0]
	got = nil
	n.Broadcast(0, "outer")
	sched.RunAll(0)
	want := "[0>1 outer 0>2 outer 2>0 inner 2>1 inner]"
	if fmt.Sprint(got) != want {
		t.Errorf("deliveries %v, want %s", got, want)
	}
	if len(n.free) != 2 || n.free[0] != first || n.free[1] == first {
		t.Errorf("free list %v: want the warm record and one new one", n.free)
	}
	for _, d := range n.free {
		if d.msg != nil || len(d.to) != 0 || d.next != 0 {
			t.Errorf("record freed uncleared: %+v", d)
		}
	}
}
