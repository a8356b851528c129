package bftlive

import (
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func newSim(t *testing.T, n int) (*sim.Scheduler, *simnet.Network, *SimCluster) {
	t.Helper()
	sched := sim.NewScheduler(1)
	net, err := simnet.New(sched, simnet.FixedLatency(20*time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimCluster(net, n)
	if err != nil {
		t.Fatal(err)
	}
	return sched, net, s
}

func TestSimClusterValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	net, err := simnet.New(sched, simnet.FixedLatency(time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimCluster(net, 3); err == nil {
		t.Fatal("n=3 accepted")
	}
	if _, err := NewSimCluster(nil, 4); err == nil {
		t.Fatal("nil network accepted")
	}
	s, err := NewSimCluster(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 4} {
		if err := s.SetBehavior(i, Silent); err == nil {
			t.Errorf("SetBehavior(%d, Silent) accepted on 4 replicas", i)
		}
		if b := s.BehaviorOf(i); b != Silent {
			t.Errorf("BehaviorOf(%d) = %v on 4 replicas, want silent", i, b)
		}
	}
	// A behaviour the protocol does not know would vote on the wire and be
	// counted nowhere.
	if err := s.SetBehavior(0, Behavior(7)); err == nil {
		t.Error("SetBehavior(0, Behavior(7)) accepted")
	}
	if b := s.BehaviorOf(0); b != Honest {
		t.Errorf("replica 0 is %v after the rejected SetBehavior, want honest", b)
	}
}

func TestSimWithPowerValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	net, err := simnet.New(sched, simnet.FixedLatency(time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string][]float64{
		"too short": {1, 1, 1},
		"too long":  {1, 1, 1, 1, 1},
		"zero":      {1, 1, 1, 0},
		"negative":  {1, 1, 1, -1},
		"NaN":       {1, 1, 1, math.NaN()},
		"+Inf":      {1, 1, 1, math.Inf(1)},
		"-Inf":      {1, 1, 1, math.Inf(-1)},
	} {
		if _, err := NewSimCluster(net, 4, SimWithPower(w)); err == nil {
			t.Errorf("%s power %v accepted", name, w)
		}
	}
	w := []float64{2, 1, 1, 0.5}
	s, err := NewSimCluster(net, 4, SimWithPower(w))
	if err != nil {
		t.Fatal(err)
	}
	w[0] = 100 // the cluster keeps its own copy, and every node reads that one
	for i, nd := range s.nodes {
		if &nd.power[0] != &s.power[0] || nd.power[0] != 2 || nd.total != 4.5 {
			t.Fatalf("node %d: power %v total %v, want the cluster's one slice [2 1 1 0.5]", i, nd.power, nd.total)
		}
	}
}

func TestSimClusterCommitsHonestPath(t *testing.T) {
	sched, _, s := newSim(t, 7)
	const total = 5
	for i := 0; i < total; i++ {
		s.Submit([]byte(fmt.Sprintf("v-%03d", i)))
	}
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		v := fmt.Sprintf("v-%03d", i)
		if got := s.CommittedBy([]byte(v)); got != 7 {
			t.Fatalf("value %q committed by %d replicas, want 7", v, got)
		}
	}
	if s.Violation() != nil {
		t.Fatalf("honest run reported violation %v", s.Violation())
	}
	if s.CommitCount() != 7*total {
		t.Fatalf("commit count %d, want %d", s.CommitCount(), 7*total)
	}
}

func TestSimClusterToleratesSilentMinority(t *testing.T) {
	sched, _, s := newSim(t, 7)
	if err := s.SetBehavior(5, Silent); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBehavior(6, Silent); err != nil {
		t.Fatal(err)
	}
	s.Submit([]byte("survivor"))
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// quorum = 5 of 7; 5 live replicas commit, the silent pair does not.
	if got := s.CommittedBy([]byte("survivor")); got != 5 {
		t.Fatalf("committed by %d replicas, want 5", got)
	}
}

func TestSimClusterStallsPastThreshold(t *testing.T) {
	sched, _, s := newSim(t, 7)
	for _, i := range []int{4, 5, 6} {
		if err := s.SetBehavior(i, Silent); err != nil {
			t.Fatal(err)
		}
	}
	s.Submit([]byte("stuck"))
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.CommittedBy([]byte("stuck")); got != 0 {
		t.Fatalf("committed by %d replicas despite 3/7 silent", got)
	}
}

func TestSimClusterPartitionStallsAndHeals(t *testing.T) {
	sched, net, s := newSim(t, 7)
	// Cut three replicas off: the primary side has 4 < quorum 5.
	net.SetPartitions([]simnet.NodeID{4, 5, 6})
	s.Submit([]byte("partitioned"))
	if _, err := sched.At(500*time.Millisecond, "heal", func() {
		net.SetPartitions()
		s.Submit([]byte("healed"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.CommittedBy([]byte("partitioned")); got != 0 {
		t.Fatalf("value committed by %d replicas across a majority partition", got)
	}
	if got := s.CommittedBy([]byte("healed")); got != 7 {
		t.Fatalf("post-heal value committed by %d replicas, want 7", got)
	}
}

func TestSimClusterEquivocationViolatesAgreement(t *testing.T) {
	sched, _, s := newSim(t, 7)
	for _, i := range []int{0, 2, 4} {
		if err := s.SetBehavior(i, Promiscuous); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EquivocateNext([]byte("left"), []byte("right")); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	v := s.Violation()
	if v == nil {
		t.Fatal("equivocation with 3/7 colluders produced no violation")
	}
	if v.Digests[0] == v.Digests[1] {
		t.Fatalf("violation digests equal: %v", v)
	}
	if s.CommittedBy([]byte("left")) == 0 || s.CommittedBy([]byte("right")) == 0 {
		t.Fatalf("expected honest commits on both sides, got left=%d right=%d",
			s.CommittedBy([]byte("left")), s.CommittedBy([]byte("right")))
	}
}

func TestSimClusterEquivocationNeedsByzantinePrimary(t *testing.T) {
	_, _, s := newSim(t, 7)
	if err := s.EquivocateNext([]byte("a"), []byte("b")); err == nil {
		t.Fatal("honest primary allowed to equivocate")
	}
}

// TestSimClusterWirePinned replays a fixed lossy, faulty, crash-and-recover
// run and compares every wire counter with the values the container/heap,
// map-per-round implementation produced: a change to scheduling order or
// RNG draw order anywhere under the live loop moves at least one of them.
func TestSimClusterWirePinned(t *testing.T) {
	for _, tc := range []struct {
		drop           float64
		stats          simnet.Stats
		fired          uint64
		views, commits int
	}{
		{0, simnet.Stats{Sent: 4980, Delivered: 4570, NodeDown: 381, LinkDropped: 32, Duplicated: 9, Reordered: 34}, 5750, 1, 335},
		{0.1, simnet.Stats{Sent: 13914, Delivered: 11678, Dropped: 1344, NodeDown: 845, LinkDropped: 50, Duplicated: 15, Reordered: 86}, 14349, 90, 518},
	} {
		sched := sim.NewScheduler(42)
		net, err := simnet.New(sched, simnet.FixedLatency(20*time.Millisecond), tc.drop)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewSimCluster(net, 7, SimWithViewTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetLinkFault(0, 3, simnet.Fault{Drop: 0.2, Jitter: 15 * time.Millisecond, Duplicate: 0.1, Reorder: 0.1}); err != nil {
			t.Fatal(err)
		}
		if err := net.SetLinkFault(5, 0, simnet.Fault{ExtraLatency: 5 * time.Millisecond, Reorder: 0.3}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			cl.Submit([]byte(fmt.Sprintf("v-%04d", i)))
			switch i {
			case 20:
				net.SetDown(0, true)
			case 35:
				net.SetDown(0, false)
			}
			if err := sched.Run(sched.Now() + time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		if got := net.Stats(); got != tc.stats {
			t.Errorf("drop %v: stats = %+v, want %+v", tc.drop, got, tc.stats)
		}
		if sched.Fired() != tc.fired || cl.ViewChanges() != tc.views || cl.CommitCount() != tc.commits {
			t.Errorf("drop %v: fired %d, %d view changes, %d commits; want %d, %d, %d",
				tc.drop, sched.Fired(), cl.ViewChanges(), cl.CommitCount(), tc.fired, tc.views, tc.commits)
		}
		if v := cl.Violation(); v != nil {
			t.Errorf("drop %v: agreement violated: %v", tc.drop, v)
		}
	}
}

// TestSimClusterCommitAllocations is the per-commit ceiling, measured + 10 %
// (at least + 2): a warm 7-replica commit — 15 broadcasts, 90 messages, 7
// rounds — allocates 5 objects on a clean wire and 13 on one losing a tenth
// of its messages. What remains: the value's one copy; the request, its
// closure and its scheduler event; the chunks that messages and rounds are
// carved from, a fraction of an object each per commit; the growth of the
// tables that remember every slot and digest; and, on the lossy wire, the
// view-change tallies, the re-proposed backlog and simnet's split runs.
// Boxing a message per hop, a self-delivery record per broadcast, a value
// copy per replica and phase and two objects per round made these 69 and
// 119. The per-timeline ceiling is TestLiveWireAllocations, at the root.
func TestSimClusterCommitAllocations(t *testing.T) {
	for _, tc := range []struct {
		drop    float64
		ceiling float64
	}{{0, 7}, {0.1, 15}} {
		sched := sim.NewScheduler(42)
		net, err := simnet.New(sched, simnet.FixedLatency(20*time.Millisecond), tc.drop)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewSimCluster(net, 7, SimWithViewTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		value, i := []byte("v-00000000"), 0
		got := testing.AllocsPerRun(200, func() {
			i++
			value = strconv.AppendInt(value[:2], int64(i), 10)
			cl.Submit(value)
			if err := sched.Run(sched.Now() + time.Minute); err != nil {
				t.Fatal(err)
			}
		})
		if cl.CommitCount() < 201*cl.Quorum() || cl.Violation() != nil {
			t.Fatalf("drop %v: %d commit events for 201 values, violation %v", tc.drop, cl.CommitCount(), cl.Violation())
		}
		if got > tc.ceiling {
			t.Errorf("drop %v: a 7-replica commit allocates %.0f objects, want at most %.0f", tc.drop, got, tc.ceiling)
		}
	}
}
