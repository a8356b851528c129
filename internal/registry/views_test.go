package registry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/diversity"
	"repro/internal/vuln"
)

// viewsRegistry joins replicas in a deliberately non-ascending id order
// across several configurations, powers and latencies, so neither view's
// id order can fall out of bucket or group order by accident.
func viewsRegistry(t *testing.T) *Registry {
	t.Helper()
	r := New(nil, nil)
	for i := 0; i < 60; i++ {
		id := ReplicaID(fmt.Sprintf("r-%02d", (i*37)%60))
		cfg := testCfg([]string{"debian", "fedora", "openbsd", "alpine"}[i%4])
		if err := r.JoinDeclared(id, cfg, float64(1+i%3), time.Duration(i%2)*time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestSnapshotViewsAreIndependent: Replicas alone never pays for the
// population, and a Population built afterwards lists the members in
// replica-id order — the order the views had when one pass built both.
func TestSnapshotViewsAreIndependent(t *testing.T) {
	r := viewsRegistry(t)
	s, err := r.Snapshot(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	reps := s.Replicas()
	if s.lazyPop != nil {
		t.Fatal("Replicas() built the population")
	}
	if len(reps) != 60 {
		t.Fatalf("%d replicas, want 60", len(reps))
	}
	want := make([]diversity.Member, len(reps))
	for i, rep := range reps {
		if i > 0 && reps[i-1].Name >= rep.Name {
			t.Fatalf("replicas not id-sorted at %d: %s, %s", i, reps[i-1].Name, rep.Name)
		}
		want[i] = diversity.Member{Label: rep.Config.Digest().String(), Power: rep.Power}
	}
	pop := s.Population()
	if got := pop.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("population members out of replica order:\n got %v\nwant %v", got, want)
	}
	if &s.Replicas()[0] != &reps[0] || s.Population() != pop {
		t.Fatal("a view was built twice")
	}
}

// TestSnapshotViewsConcurrentFirstUse races the first calls of both views
// from many goroutines (run under -race): each view is built exactly once
// and every caller sees the same one.
func TestSnapshotViewsConcurrentFirstUse(t *testing.T) {
	r := viewsRegistry(t)
	s, err := r.Snapshot(DefaultWeighting)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	reps := make([][]vuln.Replica, callers)
	pops := make([]*diversity.Population, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				reps[i], pops[i] = s.Replicas(), s.Population()
			} else {
				pops[i], reps[i] = s.Population(), s.Replicas()
			}
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if &reps[i][0] != &reps[0][0] || pops[i] != pops[0] {
			t.Fatalf("caller %d saw a different view", i)
		}
	}
}
