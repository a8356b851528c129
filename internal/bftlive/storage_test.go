package bftlive

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// What the shared storage must never do: messages are read through
// pointers into chunks the cluster fills, self-delivery records are
// recycled, a value is one slice for every replica, and a commit is
// tallied under the digest it carries. These tests hold each of those to
// what an observer can see.

// observeCommits makes every replica's commits land in *seen, in the order
// they happen, on their way to the cluster's own tally. A commit on a bare
// certificate — by a replica that never prepared the proposal — is counted
// in *certs.
func observeCommits(s *SimCluster) (seen *[]Commit, certs *int) {
	seen, certs = new([]Commit), new(int)
	for _, nd := range s.nodes {
		nd, tally := nd, nd.onCommit
		nd.onCommit = func(c Commit) {
			if !nd.rounds[c.Seq].find(c.digest).sentPrep {
				*certs++
			}
			*seen = append(*seen, c)
			tally(c)
		}
	}
	return seen, certs
}

// TestCommitsMatchTheirDigestsUnderLossAndRotation: on a wire losing a
// tenth of its messages, under a primary that never speaks — so the view
// changes, backlogs are re-proposed and replicas that missed a pre-prepare
// commit on certificates — every commit any replica reports carries the
// digest of its value, the cluster's per-value tally is the number of
// honest commits of that value, and agreement holds.
func TestCommitsMatchTheirDigestsUnderLossAndRotation(t *testing.T) {
	var views, certs int
	for seed := int64(1); seed <= 20; seed++ {
		sched := sim.NewScheduler(seed)
		net, err := simnet.New(sched, simnet.FixedLatency(20*time.Millisecond), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSimCluster(net, 7, SimWithViewTimeout(200*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetBehavior(0, Silent); err != nil {
			t.Fatal(err)
		}
		seen, runCerts := observeCommits(s)
		const values = 12
		for i := 0; i < values; i++ {
			i := i
			if _, err := sched.At(time.Duration(i)*150*time.Millisecond, "submit", func() {
				s.Submit([]byte(fmt.Sprintf("tx-%02d", i)))
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sched.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		honest := make(map[string]int)
		for _, c := range *seen {
			if c.digest != digestOf(c.Value) {
				t.Fatalf("seed %d: replica %d committed %q at slot %d under digest %s, which is not its hash",
					seed, c.Replica, c.Value, c.Seq, c.digest.Short())
			}
			if s.BehaviorOf(c.Replica) == Honest {
				honest[string(c.Value)]++
			}
		}
		for i := 0; i < values; i++ {
			v := fmt.Sprintf("tx-%02d", i)
			if got := s.CommittedBy([]byte(v)); got != honest[v] || got < s.Quorum()-1 {
				t.Errorf("seed %d: CommittedBy(%q) = %d, observed %d honest commits, want them equal and at least %d",
					seed, v, got, honest[v], s.Quorum()-1)
			}
		}
		if s.CommitCount() != len(*seen) {
			t.Errorf("seed %d: CommitCount() = %d, observed %d", seed, s.CommitCount(), len(*seen))
		}
		if v := s.Violation(); v != nil {
			t.Fatalf("seed %d: agreement violated: %v", seed, v)
		}
		views += s.ViewChanges()
		certs += *runCerts
	}
	// The seeds must keep reaching the paths the property is about.
	if views < 20 || certs < 5 {
		t.Errorf("runs too tame: %d view changes and %d certificate commits over 20 seeds", views, certs)
	}
}

// TestSubmitCopiesTheValue: a value is the caller's until Submit returns
// and the protocol's from then on. Writing to the caller's slice right
// after Submit, and again after the commit, changes nothing a replica
// proposes, commits or reports.
func TestSubmitCopiesTheValue(t *testing.T) {
	t.Run("SimCluster", func(t *testing.T) {
		sched, _, s := newSim(t, 7)
		seen, _ := observeCommits(s)
		v := []byte("mine")
		s.Submit(v)
		copy(v, "XXXX")
		if err := sched.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		copy(v, "YYYY")
		if len(*seen) != 7 || s.CommittedBy([]byte("mine")) != 7 || s.CommittedBy([]byte("XXXX")) != 0 {
			t.Fatalf("%d commits, %d of the submitted bytes, %d of the overwritten ones; want 7, 7, 0",
				len(*seen), s.CommittedBy([]byte("mine")), s.CommittedBy([]byte("XXXX")))
		}
		for _, c := range *seen {
			if string(c.Value) != "mine" {
				t.Fatalf("replica %d reports %q, want the submitted bytes", c.Replica, c.Value)
			}
		}
	})
}

// TestManyChunksInFlight: 300 values submitted back to back on a 200 ms
// wire keep thousands of messages — dozens of chunks — in the network at
// once, and every self-delivery provokes the next broadcast. All of them
// commit on all 7 replicas in submission order.
func TestManyChunksInFlight(t *testing.T) {
	sched := sim.NewScheduler(1)
	net, err := simnet.New(sched, simnet.FixedLatency(200*time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimCluster(net, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen, certs := observeCommits(s)
	const values = 300
	for i := 0; i < values; i++ {
		s.Submit([]byte(fmt.Sprintf("v-%03d", i)))
	}
	if err := sched.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if s.CommitCount() != 7*values || len(*seen) != 7*values || *certs != 0 {
		t.Fatalf("%d commit events (%d observed, %d on certificates), want %d, none on a certificate", s.CommitCount(), len(*seen), *certs, 7*values)
	}
	next := make([]int, 7)
	for _, c := range *seen {
		want := fmt.Sprintf("v-%03d", next[c.Replica])
		if string(c.Value) != want || c.Seq != uint64(next[c.Replica]+1) {
			t.Fatalf("replica %d committed %q at slot %d, want %q at slot %d", c.Replica, c.Value, c.Seq, want, next[c.Replica]+1)
		}
		next[c.Replica]++
	}
	if v := s.Violation(); v != nil {
		t.Fatalf("agreement violated: %v", v)
	}
	if broadcasts := net.Stats().Sent / 6; broadcasts < 40*msgChunk {
		t.Errorf("only %d broadcasts: the run no longer spans many chunks", broadcasts)
	}
}

// TestSelfDeliveryIsFreeBeforeItsHandlerRuns: a fired record goes back on
// the free list first, so the broadcast its handler makes takes that very
// record. A primary talking to nobody — its pre-prepare comes back, it
// prepares, the prepare comes back — gets by on one.
func TestSelfDeliveryIsFreeBeforeItsHandlerRuns(t *testing.T) {
	sched, net, s := newSim(t, 4)
	for i := 1; i < 4; i++ {
		if err := s.SetBehavior(i, Silent); err != nil {
			t.Fatal(err)
		}
	}
	s.Submit([]byte("alone"))
	if err := sched.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if sent := net.Stats().Sent; sent != 6 {
		t.Fatalf("%d messages sent, want a pre-prepare and a prepare to three peers each", sent)
	}
	if len(s.freeSelf) != 1 || s.freeSelf[0].m != nil {
		t.Fatalf("free list %v, want one cleared record", s.freeSelf)
	}
}
