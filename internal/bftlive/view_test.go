package bftlive

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// newRotatingSim builds a SimCluster with primary rotation enabled.
func newRotatingSim(t *testing.T, seed int64, n int, viewTimeout time.Duration) (*sim.Scheduler, *simnet.Network, *SimCluster) {
	t.Helper()
	sched := sim.NewScheduler(seed)
	net, err := simnet.New(sched, simnet.FixedLatency(20*time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimCluster(net, n, SimWithViewTimeout(viewTimeout))
	if err != nil {
		t.Fatal(err)
	}
	return sched, net, s
}

func TestSimOptionValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	net, err := simnet.New(sched, simnet.FixedLatency(time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimCluster(net, 4, SimWithViewTimeout(-time.Second)); err == nil {
		t.Fatal("negative view timeout accepted")
	}
	if _, err := NewSimCluster(net, 4, nil); err == nil {
		t.Fatal("nil option accepted")
	}
}

func TestSimViewChangeRotatesOnPrimaryCrash(t *testing.T) {
	sched, net, s := newRotatingSim(t, 1, 7, 200*time.Millisecond)
	s.Submit([]byte("before"))
	if _, err := sched.At(300*time.Millisecond, "crash primary", func() {
		net.SetDown(0, true)
		if err := s.SetBehavior(0, Silent); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.At(400*time.Millisecond, "submit after crash", func() {
		s.Submit([]byte("after"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.CommittedBy([]byte("before")); got != 7 {
		t.Fatalf("pre-crash value committed by %d, want 7", got)
	}
	// The crashed primary never proposes "after"; the survivors rotate and
	// the new primary re-proposes the banked request.
	if got := s.CommittedBy([]byte("after")); got != 6 {
		t.Fatalf("post-crash value committed by %d, want 6", got)
	}
	if s.View() < 1 || s.ViewChanges() < 1 {
		t.Fatalf("no rotation: view=%d changes=%d", s.View(), s.ViewChanges())
	}
	if s.Primary() == 0 {
		t.Fatal("primary still 0 after rotation")
	}
	if v := s.Violation(); v != nil {
		t.Fatalf("rotation violated agreement: %v", v)
	}
}

func TestSimViewTimeoutZeroKeepsFixedPrimary(t *testing.T) {
	sched, net, s := newSim(t, 7)
	if _, err := sched.At(50*time.Millisecond, "crash primary", func() {
		net.SetDown(0, true)
		s.Submit([]byte("orphaned"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.CommittedBy([]byte("orphaned")); got != 0 {
		t.Fatalf("value committed by %d without a primary or rotation", got)
	}
	if s.ViewChanges() != 0 || s.View() != 0 {
		t.Fatalf("rotation happened with timeout disabled: view=%d", s.View())
	}
}

func TestSimSafetyAcrossSuccessiveRotations(t *testing.T) {
	sched, net, s := newRotatingSim(t, 1, 7, 200*time.Millisecond)
	s.Submit([]byte("v0"))
	crash := func(at time.Duration, id int) {
		if _, err := sched.At(at, fmt.Sprintf("crash %d", id), func() {
			net.SetDown(simnet.NodeID(id), true)
			if err := s.SetBehavior(id, Silent); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	crash(300*time.Millisecond, 0)
	if _, err := sched.At(400*time.Millisecond, "submit v1", func() {
		s.Submit([]byte("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	// After the first rotation the primary is 1; crash it too (f = 2).
	crash(3*time.Second, 1)
	if _, err := sched.At(3100*time.Millisecond, "submit v2", func() {
		s.Submit([]byte("v2"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.CommittedBy([]byte("v0")); got != 7 {
		t.Fatalf("v0 committed by %d, want 7", got)
	}
	if got := s.CommittedBy([]byte("v1")); got != 6 {
		t.Fatalf("v1 committed by %d, want 6", got)
	}
	// Five survivors are exactly the quorum.
	if got := s.CommittedBy([]byte("v2")); got != 5 {
		t.Fatalf("v2 committed by %d, want 5", got)
	}
	if s.View() < 2 || s.ViewChanges() < 2 {
		t.Fatalf("expected two rotations: view=%d changes=%d", s.View(), s.ViewChanges())
	}
	if v := s.Violation(); v != nil {
		t.Fatalf("rotations violated agreement: %v", v)
	}
}

func TestSimRotationUnderLossyLinks(t *testing.T) {
	sched, net, s := newRotatingSim(t, 7, 7, 200*time.Millisecond)
	// Degrade every link touching replicas 5 and 6 (n - quorum = 2, so the
	// clean five still form a quorum), then crash the primary mid-run.
	for peer := 0; peer < 5; peer++ {
		for _, lossy := range []simnet.NodeID{5, 6} {
			if err := net.SetLinkFault(simnet.NodeID(peer), lossy, simnet.Fault{Drop: 0.3, Jitter: 30 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
			if err := net.SetLinkFault(lossy, simnet.NodeID(peer), simnet.Fault{Drop: 0.3, Duplicate: 0.2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Submit([]byte("lossy-0"))
	if _, err := sched.At(500*time.Millisecond, "crash primary", func() {
		net.SetDown(0, true)
		if err := s.SetBehavior(0, Silent); err != nil {
			t.Error(err)
		}
		s.Submit([]byte("lossy-1"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.CommittedBy([]byte("lossy-0")); got < 5 {
		t.Fatalf("pre-crash value committed by %d, want >= 5", got)
	}
	if got := s.CommittedBy([]byte("lossy-1")); got < 4 {
		t.Fatalf("post-crash value committed by %d survivors, want >= 4", got)
	}
	if s.ViewChanges() < 1 {
		t.Fatal("no rotation on a lossy wire")
	}
	if v := s.Violation(); v != nil {
		t.Fatalf("lossy rotation violated agreement: %v", v)
	}
}

// rotationTranscript runs the lossy-rotation workload and returns a
// deterministic digest of everything observable.
func rotationTranscript(seed int64) string {
	sched := sim.NewScheduler(seed)
	net, err := simnet.New(sched, simnet.UniformLatency{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond}, 0.02)
	if err != nil {
		panic(err)
	}
	s, err := NewSimCluster(net, 7, SimWithViewTimeout(150*time.Millisecond))
	if err != nil {
		panic(err)
	}
	if err := net.SetLinkFault(2, 6, simnet.Fault{Drop: 0.4, Reorder: 0.5}); err != nil {
		panic(err)
	}
	if err := net.SetLinkFault(6, 2, simnet.Fault{Duplicate: 0.5, Jitter: 10 * time.Millisecond}); err != nil {
		panic(err)
	}
	transcript := ""
	for i := 0; i < 5; i++ {
		i := i
		if _, err := sched.At(time.Duration(i)*400*time.Millisecond, "submit", func() {
			s.Submit([]byte(fmt.Sprintf("tx-%d", i)))
		}); err != nil {
			panic(err)
		}
	}
	if _, err := sched.At(600*time.Millisecond, "crash primary", func() {
		net.SetDown(0, true)
		if err := s.SetBehavior(0, Silent); err != nil {
			panic(err)
		}
	}); err != nil {
		panic(err)
	}
	if err := sched.Run(10 * time.Second); err != nil {
		panic(err)
	}
	for i := 0; i < 5; i++ {
		transcript += fmt.Sprintf("tx-%d:%d\n", i, s.CommittedBy([]byte(fmt.Sprintf("tx-%d", i))))
	}
	transcript += fmt.Sprintf("view=%d changes=%d commits=%d stats=%+v\n",
		s.View(), s.ViewChanges(), s.CommitCount(), net.Stats())
	return transcript
}

func TestSimRotationDeterminism(t *testing.T) {
	want := rotationTranscript(42)
	for i := 0; i < 3; i++ {
		if got := rotationTranscript(42); got != want {
			t.Fatalf("replay %d diverged:\n%s\nvs\n%s", i, got, want)
		}
	}
	t.Run("parallel", func(t *testing.T) {
		for w := 0; w < 4; w++ {
			t.Run(fmt.Sprintf("worker-%d", w), func(t *testing.T) {
				t.Parallel()
				if got := rotationTranscript(42); got != want {
					t.Fatal("parallel replay diverged")
				}
			})
		}
	})
}
