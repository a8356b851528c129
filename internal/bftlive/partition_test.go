package bftlive_test

import (
	"testing"
	"time"

	"repro/internal/bftlive"
	"repro/internal/simnet"
)

// Partition and asynchrony scenarios: BFT must never violate safety under
// arbitrary network conditions (only liveness may suffer), and must resume
// when the network heals.

func TestMinorityPartitionCannotCommit(t *testing.T) {
	cl := newCluster(t, 31, 7)
	// Isolate replicas 5 and 6 (a minority island).
	cl.net.SetPartitions([]simnet.NodeID{0, 1, 2, 3, 4}, []simnet.NodeID{5, 6})
	cl.Submit([]byte("majority-side"))
	cl.run(t, 30*time.Second)
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation under partition: %v", v)
	}
	// The majority side commits; the island cannot: five commits in all.
	if n := cl.CommittedBy([]byte("majority-side")); n != 5 {
		t.Fatalf("majority commits = %d, want 5", n)
	}
	if n := cl.CommitCount(); n != 5 {
		t.Fatalf("%d commits in all, want 5: an isolated replica committed", n)
	}
}

func TestNoQuorumSideEverCommits(t *testing.T) {
	// Split 4/3: neither side has > 2/3 of 7.
	cl := newCluster(t, 32, 7)
	cl.net.SetPartitions([]simnet.NodeID{0, 1, 2, 3}, []simnet.NodeID{4, 5, 6})
	cl.Submit([]byte("stuck"))
	cl.run(t, time.Minute)
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation: %v", v)
	}
	if n := cl.CommittedBy([]byte("stuck")); n != 0 {
		t.Fatalf("commits under no-quorum split = %d, want 0", n)
	}
}

func TestHealedPartitionResumesLiveness(t *testing.T) {
	cl := newCluster(t, 33, 7)
	cl.net.SetPartitions([]simnet.NodeID{0, 1, 2, 3}, []simnet.NodeID{4, 5, 6})
	cl.Submit([]byte("delayed"))
	cl.run(t, 10*time.Second)
	if n := cl.CommittedBy([]byte("delayed")); n != 0 {
		t.Fatalf("pre-heal commits = %d", n)
	}
	// Heal: pending requests and view-change retries must drive progress.
	cl.net.SetPartitions()
	cl.run(t, 3*time.Minute)
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation after heal: %v", v)
	}
	if n := cl.CommittedBy([]byte("delayed")); n != 7 {
		t.Fatalf("post-heal commits = %d, want 7", n)
	}
}

func TestWeightedViewChange(t *testing.T) {
	// Weighted quorums in the view-change path: a crashed heavyweight
	// primary (weight 2 of total 6) leaves exactly 2/3 — not a quorum —
	// so the remaining replicas alone must NOT be able to change views...
	// unless the tolerance math says otherwise: quorum needs > 4. Honest
	// weight is 4, so no view change (and no progress) is possible.
	weights := []float64{2, 1, 1, 1, 1} // total 6, quorum > 4
	cl := newCluster(t, 34, len(weights), bftlive.SimWithPower(weights))
	cl.setBehavior(t, 0, bftlive.Silent)
	cl.Submit([]byte("blocked"))
	cl.run(t, 2*time.Minute)
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation: %v", v)
	}
	if n := cl.CommittedBy([]byte("blocked")); n != 0 {
		t.Fatalf("commits = %d, want 0: honest weight 4 is not a quorum of 6", n)
	}
	if cl.ViewChanges() != 0 {
		t.Fatalf("%d view changes on exactly 2/3 of the power", cl.ViewChanges())
	}

	// With a lighter primary (weight 1 of total 5), honest weight 4 > 10/3
	// is a quorum: the view change succeeds and the value commits.
	weights2 := []float64{1, 1, 1, 1, 1}
	cl2 := newCluster(t, 35, len(weights2), bftlive.SimWithPower(weights2))
	cl2.setBehavior(t, 0, bftlive.Silent)
	cl2.Submit([]byte("unblocked"))
	cl2.run(t, 2*time.Minute)
	if n := cl2.CommittedBy([]byte("unblocked")); n != 4 {
		t.Fatalf("commits = %d, want 4", n)
	}
}

func TestAsynchronousDeliverySafety(t *testing.T) {
	// Extreme jitter: latencies spanning two orders of magnitude. Safety
	// and eventual liveness must both hold.
	cl := newClusterOn(t, 36, simnet.UniformLatency{Min: time.Millisecond, Max: 400 * time.Millisecond}, 0, 7,
		bftlive.SimWithViewTimeout(2*time.Second))
	for i := 0; i < 10; i++ {
		cl.Submit([]byte{byte(i)})
	}
	cl.run(t, 5*time.Minute)
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation under jitter: %v", v)
	}
	for i := 0; i < 10; i++ {
		if n := cl.CommittedBy([]byte{byte(i)}); n != 7 {
			t.Fatalf("value %d committed on %d/7 replicas", i, n)
		}
	}
}

func TestViewChangePreservesPreparedValue(t *testing.T) {
	// A value that reached the prepared state before the primary crashed
	// must be the one committed after the view change (PBFT's safety
	// across views). We approximate by crashing the primary *after* it
	// proposed: prepares circulate, then the view changes.
	cl := newCluster(t, 37, 4)
	cl.Submit([]byte("carry-me"))
	// Crash the primary shortly after proposal; prepares are in flight.
	cl.sched.After(15*time.Millisecond, "crash-primary", func() {
		cl.setBehavior(t, 0, bftlive.Silent)
		cl.net.SetDown(0, true)
	})
	cl.run(t, 2*time.Minute)
	if v := cl.Violation(); v != nil {
		t.Fatalf("violation: %v", v)
	}
	if n := cl.CommittedBy([]byte("carry-me")); n != 3 {
		t.Fatalf("commits = %d, want 3 (value carried across view change)", n)
	}
	// All honest replicas agree on slot contents: one slot each, the same.
	if n := cl.CommitCount(); n != 3 {
		t.Fatalf("%d commits in all, want 3: the survivors' logs differ in length", n)
	}
}
