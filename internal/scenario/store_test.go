package scenario

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/vuln"
)

// keptRun is one timeline of keptSequence, generated fresh, with its
// address.
type keptRun struct {
	p     GenProfile
	index int
	tl    *Timeline
}

// keptSequence is a fixed run order for one worker's storage: timelines 0-5
// of the four analytic profiles and lossy-wire#0, the largest fleet first,
// so every later run finds kept buffers longer than it needs.
func keptSequence(t *testing.T) []keptRun {
	t.Helper()
	var runs []keptRun
	for _, name := range []string{"churn-heavy", "disclosure-storm", "partition-flap", "adaptive-adversary"} {
		p, _ := LookupProfile(name)
		for i := 0; i < 6; i++ {
			runs = append(runs, keptRun{p: p, index: i, tl: p.Generate(42, i)})
		}
	}
	wire, _ := LookupProfile("lossy-wire")
	runs = append(runs, keptRun{p: wire, index: 0, tl: wire.Generate(42, 0)})
	joins := func(tl *Timeline) (n int) {
		for _, ev := range tl.Events {
			if ev.Op == OpJoin {
				n++
			}
		}
		return n
	}
	slices.SortStableFunc(runs, func(a, b keptRun) int { return cmp.Compare(joins(b.tl), joins(a.tl)) })
	if joins(runs[0].tl) <= joins(runs[len(runs)-1].tl) {
		t.Fatal("the sequence does not shrink")
	}
	return runs
}

// TestKeptStorageIsInvisible: one worker's storage, carried through a fixed
// sequence of timelines, changes nothing a fresh generation and a fresh
// CheckRun give: the timeline, every record of its trace and every
// violation, under the default invariants and under never-unsafe (which
// violates, so the violations compared are not all empty).
func TestKeptStorageIsInvisible(t *testing.T) {
	for _, invs := range [][]Invariant{DefaultInvariants(), {NeverUnsafe(), OracleAgreement()}} {
		st := new(workerStore)
		violating := 0
		for _, run := range keptSequence(t) {
			want := run.tl
			tl := run.p.generate(42, run.index, st)
			if !reflect.DeepEqual(tl, want) {
				t.Fatalf("%s: generated on kept storage, the timeline differs from a fresh one", want.Name)
			}
			res, violations, err := CheckRun(tl.Def(), 42, invs, withStore(st))
			if err != nil {
				t.Fatal(err)
			}
			fresh, freshViolations, err := CheckRun(want.Def(), 42, invs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, fresh) {
				t.Fatalf("%s: the trace on kept storage differs from a fresh run's", want.Name)
			}
			if !reflect.DeepEqual(violations, freshViolations) {
				t.Fatalf("%s: violations on kept storage\n%v\nfresh\n%v", want.Name, violations, freshViolations)
			}
			violating += len(violations)
			st.recycle(tl, res)
		}
		if invs[0].Name == "never-unsafe" && violating == 0 {
			t.Fatal("never-unsafe found nothing: the violation comparison was vacuous")
		}
	}
}

// TestFreshResultOwnsItsTrace: a Run without kept storage returns a trace
// no later Run writes into.
func TestFreshResultOwnsItsTrace(t *testing.T) {
	seq := keptSequence(t)
	first, err := Run(seq[0].tl.Def(), 42)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first.Records)
	for _, run := range seq[1:4] {
		if _, err := Run(run.tl.Def(), 42); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first.Records, want) {
		t.Fatal("a later run wrote into an earlier Result's records")
	}
}

// TestOracleBucketOrderIsIDOrder: the oracle feeds its flat injector the
// snapshot's replicas in bucket order; over the replicas of generated
// timelines, any shuffle of them, fed to one reused injector, gives the
// injection Replicas' ID order gives a fresh one: fractions, fault order
// and each fault's Compromised order.
func TestOracleBucketOrderIsIDOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var kept vuln.Injector
	checked := 0
	for _, run := range keptSequence(t) {
		tl := run.tl
		var snaps []*registry.Snapshot
		var catalogs []*vuln.Catalog
		probe := observerFunc(func(e *Engine, _ EventInfo, rec *Record) error {
			if rec.Seq%7 != 0 {
				return nil
			}
			snap, err := e.Registry().Snapshot(registry.DefaultWeighting)
			if err != nil {
				return err
			}
			cat := vuln.NewCatalog()
			for _, v := range e.Catalog().All() {
				if err := cat.Add(v); err != nil {
					return err
				}
			}
			snaps, catalogs = append(snaps, snap), append(catalogs, cat)
			return nil
		})
		if _, err := Run(tl.Def(), 42, WithObserver(probe)); err != nil {
			t.Fatal(err)
		}
		for i, snap := range snaps {
			fresh, err := vuln.NewInjector(catalogs[i], snap.Replicas())
			if err != nil {
				t.Fatal(err)
			}
			reps := snap.AppendReplicas(nil)
			for s := 0; s < 3; s++ {
				if s > 0 {
					rng.Shuffle(len(reps), func(a, b int) { reps[a], reps[b] = reps[b], reps[a] })
				}
				if err := kept.Rebuild(catalogs[i], reps); err != nil {
					t.Fatal(err)
				}
				for _, at := range fresh.CriticalInstants(tl.Horizon.D()) {
					got, want := kept.Inject(at), fresh.Inject(at)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, snapshot %d, order %d, at %v:\n got %v\nwant %v", tl.Name, i, s, time.Duration(at), got, want)
					}
					if len(want.Faults) > 0 {
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no instant had a fault: the comparison was vacuous")
	}
}

// observerFunc adapts a function to the Observer interface.
type observerFunc func(e *Engine, info EventInfo, rec *Record) error

func (f observerFunc) AfterEvent(e *Engine, info EventInfo, rec *Record) error {
	return f(e, info, rec)
}
