// The tests of this file and partition_test.go hold SimCluster, through
// its exported surface only, to the bound of the BFT family (core.BFT,
// f = 1/3): safety while Byzantine voting power is at most 1/3, liveness
// while a quorum of strictly more than 2/3 can talk.
package bftlive_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bftlive"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// testCluster is a SimCluster with the scheduler and network it runs on.
type testCluster struct {
	*bftlive.SimCluster
	net   *simnet.Network
	sched *sim.Scheduler
}

// newCluster builds an n-replica cluster on a 1–10 ms jittery wire with a
// 300 ms view timeout; opts may add bftlive.SimWithPower or override the
// timeout.
func newCluster(t *testing.T, seed int64, n int, opts ...bftlive.SimOption) *testCluster {
	t.Helper()
	return newClusterOn(t, seed, simnet.UniformLatency{Min: time.Millisecond, Max: 10 * time.Millisecond}, 0, n, opts...)
}

func newClusterOn(t *testing.T, seed int64, lat simnet.LatencyModel, drop float64, n int, opts ...bftlive.SimOption) *testCluster {
	t.Helper()
	sched := sim.NewScheduler(seed)
	net, err := simnet.New(sched, lat, drop)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]bftlive.SimOption{bftlive.SimWithViewTimeout(300 * time.Millisecond)}, opts...)
	cl, err := bftlive.NewSimCluster(net, n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{SimCluster: cl, net: net, sched: sched}
}

// setBehavior is SetBehavior for an index the test knows is in range.
func (c *testCluster) setBehavior(t *testing.T, i int, b bftlive.Behavior) {
	t.Helper()
	if err := c.SetBehavior(i, b); err != nil {
		t.Fatal(err)
	}
}

func (c *testCluster) run(t *testing.T, horizon time.Duration) {
	t.Helper()
	if err := c.sched.Run(horizon); err != nil {
		t.Fatal(err)
	}
}

func TestNewClusterValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	net, _ := simnet.New(sched, simnet.FixedLatency(0), 0)
	if _, err := bftlive.NewSimCluster(nil, 4); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := bftlive.NewSimCluster(net, 3); err == nil {
		t.Fatal("3 replicas accepted")
	}
	if _, err := bftlive.NewSimCluster(net, 4, bftlive.SimWithPower([]float64{1, 1, 1, -1})); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := bftlive.NewSimCluster(net, 4, bftlive.SimWithPower([]float64{1, 1, 1, 0})); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestCommitSingleValue(t *testing.T) {
	cl := newCluster(t, 1, 4)
	cl.Submit([]byte("tx-1"))
	// A commit costs virtual time: the client hop and three wire phases.
	cl.run(t, time.Millisecond)
	if n := cl.CommitCount(); n != 0 {
		t.Fatalf("%d commits within the client hop", n)
	}
	cl.run(t, 5*time.Second)
	if v := cl.Violation(); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	// Every replica committed tx-1 and nothing else.
	if by, total := cl.CommittedBy([]byte("tx-1")), cl.CommitCount(); by != 4 || total != 4 {
		t.Fatalf("tx-1 committed by %d replicas, %d commits in all; want 4 and 4", by, total)
	}
}

func TestCommitManyValuesInOrderEverywhere(t *testing.T) {
	cl := newCluster(t, 2, 7)
	const total = 20
	for i := 0; i < total; i++ {
		cl.Submit([]byte(fmt.Sprintf("tx-%03d", i)))
	}
	cl.run(t, time.Minute)
	// No violation means no two replicas filled a slot differently, so with
	// every value on every replica exactly once the logs are equal.
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation: %v", v)
	}
	for i := 0; i < total; i++ {
		if n := cl.CommittedBy([]byte(fmt.Sprintf("tx-%03d", i))); n != cl.N() {
			t.Fatalf("tx-%03d committed by %d of %d replicas", i, n, cl.N())
		}
	}
	if n := cl.CommitCount(); n != total*cl.N() {
		t.Fatalf("%d commits, want %d: each value once per replica", n, total*cl.N())
	}
}

func TestDuplicateSubmitCommitsOnce(t *testing.T) {
	cl := newCluster(t, 3, 4)
	cl.Submit([]byte("dup"))
	cl.run(t, 2*time.Second)
	cl.Submit([]byte("dup"))
	cl.run(t, 5*time.Second)
	if by, total := cl.CommittedBy([]byte("dup")), cl.CommitCount(); by != 4 || total != 4 {
		t.Fatalf("dup committed %d times, %d commits in all; want 4 and 4 (duplicate suppressed)", by, total)
	}
}

func TestToleratesSilentMinority(t *testing.T) {
	cl := newCluster(t, 4, 7)
	cl.setBehavior(t, 2, bftlive.Silent)
	cl.setBehavior(t, 5, bftlive.Silent) // 2 of 7 < 1/3
	cl.Submit([]byte("tx"))
	cl.run(t, 10*time.Second)
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation: %v", v)
	}
	if n := cl.CommittedBy([]byte("tx")); n != 5 {
		t.Fatalf("honest commits = %d, want 5", n)
	}
}

func TestViewChangeAfterPrimaryCrash(t *testing.T) {
	cl := newCluster(t, 5, 4)
	cl.setBehavior(t, 0, bftlive.Silent) // view-0 primary is dead from the start
	cl.Submit([]byte("survive"))
	cl.run(t, time.Minute)
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation: %v", v)
	}
	if n := cl.CommittedBy([]byte("survive")); n != 3 {
		t.Fatalf("honest commits = %d, want 3 (after view change)", n)
	}
	// The cluster moved past view 0.
	if cl.View() == 0 || cl.ViewChanges() == 0 {
		t.Fatalf("still in view %d after %d view changes", cl.View(), cl.ViewChanges())
	}
}

func TestViewChangeAfterRepeatedCrashes(t *testing.T) {
	cl := newCluster(t, 6, 7)
	cl.setBehavior(t, 0, bftlive.Silent)
	cl.setBehavior(t, 1, bftlive.Silent) // primaries of views 0 and 1 both dead (2 < 7/3)
	cl.Submit([]byte("keep-going"))
	cl.run(t, 2*time.Minute)
	if n := cl.CommittedBy([]byte("keep-going")); n != 5 {
		t.Fatalf("honest commits = %d, want 5 (view must advance twice)", n)
	}
	if cl.View() < 2 {
		t.Fatalf("view %d, want at least 2", cl.View())
	}
}

func TestCrashedPrimaryMidstream(t *testing.T) {
	cl := newCluster(t, 7, 4)
	cl.Submit([]byte("first"))
	cl.run(t, 2*time.Second)
	// Kill the primary, then submit more work.
	cl.setBehavior(t, 0, bftlive.Silent)
	cl.net.SetDown(0, true)
	cl.Submit([]byte("second"))
	cl.run(t, 2*time.Minute)
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation: %v", v)
	}
	if n := cl.CommittedBy([]byte("second")); n != 3 {
		t.Fatalf("honest commits of second = %d, want 3", n)
	}
}

func TestEquivocationBelowThresholdIsSafe(t *testing.T) {
	// 7 unit replicas; 2 Byzantine (primary + 1 colluder) = 2/7 < 1/3.
	cl := newCluster(t, 8, 7)
	cl.setBehavior(t, 0, bftlive.Promiscuous) // view-0 primary
	cl.setBehavior(t, 3, bftlive.Promiscuous)
	if err := cl.EquivocateNext([]byte("A"), []byte("B")); err != nil {
		t.Fatal(err)
	}
	cl.run(t, time.Minute)
	if v := cl.Violation(); v != nil {
		t.Fatalf("safety violated with Byzantine weight within bound: %v", v)
	}
}

func TestEquivocationAboveThresholdViolatesSafety(t *testing.T) {
	// 7 unit replicas; 3 Byzantine (primary + 2 colluders) = 3/7 > 1/3.
	cl := newCluster(t, 9, 7)
	cl.setBehavior(t, 0, bftlive.Promiscuous)
	cl.setBehavior(t, 3, bftlive.Promiscuous)
	cl.setBehavior(t, 5, bftlive.Promiscuous)
	if err := cl.EquivocateNext([]byte("A"), []byte("B")); err != nil {
		t.Fatal(err)
	}
	cl.run(t, time.Minute)
	v := cl.Violation()
	if v == nil {
		t.Fatal("no violation despite Byzantine weight above bound")
	}
	if v.Digests[0] == v.Digests[1] {
		t.Fatalf("violation with equal digests: %v", v)
	}
}

func TestEquivocationRequiresByzantinePrimary(t *testing.T) {
	cl := newCluster(t, 10, 4)
	if err := cl.EquivocateNext([]byte("A"), []byte("B")); err == nil {
		t.Fatal("honest primary equivocated")
	}
}

func TestWeightedByzantineBound(t *testing.T) {
	// One heavyweight replica holds 40% of power: compromising just it
	// (plus an equivocating primary path) breaks safety even though it is
	// 1 of 5 replicas — voting power, not replica count, is what matters
	// (Sec. II-A).
	weights := []float64{2.5, 1, 1, 1, 0.75} // replica 0: 2.5/6.25 = 40%
	cl := newCluster(t, 11, len(weights), bftlive.SimWithPower(weights))
	cl.setBehavior(t, 0, bftlive.Promiscuous) // the heavyweight is also view-0 primary
	if err := cl.EquivocateNext([]byte("A"), []byte("B")); err != nil {
		t.Fatal(err)
	}
	cl.run(t, time.Minute)
	if cl.Violation() == nil {
		t.Fatal("40% Byzantine power did not break safety")
	}
}

// TestByzantineWeightAccounting: of total weight 4 the tolerated Byzantine
// weight is 4/3 — more than one replica's, less than two's. The bound is
// read off the outcomes: one silent replica of four and the rest commit,
// two and the cluster stalls.
func TestByzantineWeightAccounting(t *testing.T) {
	for silent, want := range []int{4, 3, 0} {
		cl := newCluster(t, 12, 4)
		for i := 1; i <= silent; i++ {
			cl.setBehavior(t, i, bftlive.Silent)
		}
		cl.Submit([]byte("tx"))
		cl.run(t, 30*time.Second)
		if n := cl.CommittedBy([]byte("tx")); n != want {
			t.Fatalf("%d of 4 silent: committed by %d, want %d", silent, n, want)
		}
		if v := cl.Violation(); v != nil {
			t.Fatalf("%d of 4 silent: violation %v", silent, v)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() string {
		cl := newCluster(t, 77, 7)
		for i := 0; i < 10; i++ {
			cl.Submit([]byte(fmt.Sprintf("tx-%d", i)))
		}
		cl.run(t, 30*time.Second)
		return fmt.Sprintf("commits=%d wire=%+v fired=%d view=%d", cl.CommitCount(), cl.net.Stats(), cl.sched.Fired(), cl.View())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged: %s vs %s", a, b)
	}
}

func TestMessageOverheadGrowsWithN(t *testing.T) {
	// Proposition 3's cost side: per-consensus message count grows with
	// replica count.
	count := func(n int) uint64 {
		cl := newCluster(t, 13, n)
		cl.Submit([]byte("x"))
		cl.run(t, 10*time.Second)
		if cl.CommittedBy([]byte("x")) != n {
			t.Fatalf("n=%d: not all replicas committed", n)
		}
		return cl.net.Stats().Sent
	}
	small, large := count(4), count(16)
	if large <= small {
		t.Fatalf("messages: n=4 -> %d, n=16 -> %d; want growth", small, large)
	}
}

func TestCommitsUnderLossyNetwork(t *testing.T) {
	cl := newClusterOn(t, 21, simnet.UniformLatency{Min: time.Millisecond, Max: 10 * time.Millisecond}, 0.05, 7)
	cl.Submit([]byte("lossy"))
	cl.run(t, 2*time.Minute)
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation under loss: %v", v)
	}
	// With 5% loss and quorum redundancy the value should still commit on
	// a strong majority of replicas.
	if n := cl.CommittedBy([]byte("lossy")); n < 5 {
		t.Fatalf("honest commits = %d under 5%% loss", n)
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	cl := newCluster(t, 51, 4)
	if cl.N() != 4 || cl.BehaviorOf(2) != bftlive.Honest || cl.Primary() != 0 {
		t.Fatalf("accessors: n=%d behavior=%v primary=%d", cl.N(), cl.BehaviorOf(2), cl.Primary())
	}
	for _, b := range []bftlive.Behavior{bftlive.Honest, bftlive.Silent, bftlive.Promiscuous, bftlive.Behavior(42)} {
		if b.String() == "" {
			t.Fatalf("empty string for behavior %d", b)
		}
	}
	cl.Submit([]byte("acc"))
	cl.run(t, 5*time.Second)
	if n := cl.CommittedBy([]byte("acc")); n != 4 {
		t.Fatalf("acc committed by %d", n)
	}
	if n := cl.CommittedBy([]byte("never-submitted")); n != 0 {
		t.Fatalf("a value nobody submitted committed on %d replicas", n)
	}
	v := &bftlive.Violation{Seq: 3, Replicas: [2]int{1, 2}}
	if v.String() == "" {
		t.Fatal("empty violation string")
	}
	if cl.CommitCount() == 0 {
		t.Fatal("no commit events recorded")
	}
}
