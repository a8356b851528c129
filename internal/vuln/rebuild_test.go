package vuln

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// sameInj compares two injections field by field, floats bit for bit (−0
// differs from 0, NaN equals nothing) and a nil slice apart from an empty
// one — the oracle-agreement invariant's comparison.
func sameInj(a, b Injection) bool {
	same := func(x, y float64) bool { return x == y && math.Signbit(x) == math.Signbit(y) }
	if a.At != b.At || !same(a.TotalFraction, b.TotalFraction) || !same(a.SumFraction, b.SumFraction) {
		return false
	}
	if len(a.Faults) != len(b.Faults) || (a.Faults == nil) != (b.Faults == nil) {
		return false
	}
	for i := range a.Faults {
		fa, fb := &a.Faults[i], &b.Faults[i]
		if fa.Vuln != fb.Vuln || !same(fa.Power, fb.Power) || !same(fa.PowerFraction, fb.PowerFraction) {
			return false
		}
		if (fa.Compromised == nil) != (fb.Compromised == nil) || !slices.Equal(fa.Compromised, fb.Compromised) {
			return false
		}
	}
	return true
}

// flatIndex is everything an Injector derives from its input, in a form
// fmt prints deterministically; scratch (active, seen) is left out.
func flatIndex(in *Injector) string {
	s := fmt.Sprintf("total=%v gen=%d marks=%v reps=%v units=%v\n", in.total, in.markGen, in.marks, in.replicas, in.units)
	for _, e := range in.exposures {
		s += fmt.Sprintf("%s exposed=%v close=%v max=%v\n", e.vuln.ID, e.exposed, e.closeAt, e.maxClose)
	}
	return s
}

// extendCatalog copies cat and adds 1–4 vulnerabilities with the next IDs,
// which a larger catalog of an earlier case may already have used.
func extendCatalog(rng *rand.Rand, cat *Catalog) *Catalog {
	all := cat.All()
	out := NewCatalog()
	for _, v := range all {
		if err := out.Add(v); err != nil {
			panic(err)
		}
	}
	extra, _, _ := sweepCase(rng)
	for i, v := range extra.All()[:min(len(extra.All()), 1+rng.Intn(4))] {
		v.ID = ID(fmt.Sprintf("CVE-%03d", len(all)+i))
		if err := out.Add(v); err != nil {
			panic(err)
		}
	}
	return out
}

// renamed gives every replica a name under prefix, so two cases share no
// member.
func renamed(replicas []Replica, prefix string) []Replica {
	out := slices.Clone(replicas)
	for i := range out {
		out[i].Name = prefix + out[i].Name
	}
	return out
}

// TestPropRebuildMatchesFresh reuses one flat injector across a sequence
// of inputs — larger, smaller and disjoint fleets, catalogs with reused
// IDs, rebuilds that fail — and builds a grouped one at each of them, which
// ApplyBuckets and ApplyCatalog then patch. After every step the reused
// flat injector must hold the index a fresh constructor builds from the
// same input, and both must answer every query exactly as fresh ones do.
func TestPropRebuildMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 300; i++ {
		var flat Injector
		var grouped *GroupInjector
		var (
			cat      *Catalog
			replicas []Replica
			specs    []BucketSpec
			horizon  time.Duration
		)
		// check compares the injectors with fresh ones over
		// (cat, replicas): first the flat one's whole derived state, which
		// only holds right after a Rebuild, then their answers at random
		// instants.
		check := func(step string, rebuilt bool) {
			t.Helper()
			what := fmt.Sprintf("case %d after %s", i, step)
			freshFlat, err := NewInjector(cat, replicas)
			if err != nil {
				t.Fatal(err)
			}
			freshGrouped, err := NewGroupInjector(cat, specs)
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt {
				if g, w := flatIndex(&flat), flatIndex(freshFlat); g != w {
					t.Fatalf("%s: flat index\n got %s\nwant %s", what, g, w)
				}
			}
			for j := 0; j < 4; j++ {
				at := time.Duration(rng.Intn(70)) * 3 * time.Hour
				if g, w := flat.Inject(at), freshFlat.Inject(at); !sameInj(g, w) {
					t.Fatalf("%s: flat Inject(%v)\n got %+v\nwant %+v", what, at, g, w)
				}
				if g, w := grouped.Inject(at), freshGrouped.Inject(at); !sameInj(g, w) {
					t.Fatalf("%s: grouped Inject(%v)\n got %+v\nwant %+v", what, at, g, w)
				}
				if g, w := grouped.NextBoundary(), freshGrouped.NextBoundary(); g != w {
					t.Fatalf("%s: next boundary after %v = %v, want %v", what, at, g, w)
				}
				if g, w := flat.TotalFractionAt(at), freshFlat.TotalFractionAt(at); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: flat TotalFractionAt(%v) = %v, want %v", what, at, g, w)
				}
				if g, w := grouped.TotalFractionAt(at), freshGrouped.TotalFractionAt(at); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: grouped TotalFractionAt(%v) = %v, want %v", what, at, g, w)
				}
			}
			if g, w := flat.CriticalInstants(horizon), freshFlat.CriticalInstants(horizon); !slices.Equal(g, w) {
				t.Fatalf("%s: flat critical instants %v, want %v", what, g, w)
			}
			if g, w := grouped.CriticalInstants(horizon), freshGrouped.CriticalInstants(horizon); !slices.Equal(g, w) {
				t.Fatalf("%s: grouped critical instants %v, want %v", what, g, w)
			}
			worst := func(inj Injection, err error) Injection {
				if err != nil {
					t.Fatal(err)
				}
				return inj
			}
			if g, w := worst(flat.WorstWindow(horizon)), worst(freshFlat.WorstWindow(horizon)); !sameInj(g, w) {
				t.Fatalf("%s: flat worst window\n got %+v\nwant %+v", what, g, w)
			}
			if g, w := worst(grouped.WorstWindow(horizon)), worst(freshGrouped.WorstWindow(horizon)); !sameInj(g, w) {
				t.Fatalf("%s: grouped worst window\n got %+v\nwant %+v", what, g, w)
			}
			gi, ge := grouped.LastSweep()
			wi, we := freshGrouped.LastSweep()
			if gi != wi || ge != we {
				t.Fatalf("%s: last sweep %d/%d, want %d/%d", what, gi, ge, wi, we)
			}
		}
		rebuild := func(step string) {
			t.Helper()
			if err := flat.Rebuild(cat, replicas); err != nil {
				t.Fatal(err)
			}
			var err error
			if grouped, err = NewGroupInjector(cat, specs); err != nil {
				t.Fatal(err)
			}
			check(step, true)
		}
		for step := 0; step < 8; step++ {
			switch op := rng.Intn(6); {
			case step == 0 || op <= 1:
				// A new case: larger, smaller or equal, sharing names and
				// vulnerability IDs with the last one.
				cat, replicas, horizon = sweepCase(rng)
				specs = bucketize(replicas)
				rebuild("rebuild")
			case op == 2:
				// Disjoint: no member in common with anything seen before.
				cat, replicas, horizon = sweepCase(rng)
				replicas = renamed(replicas, fmt.Sprintf("d%d-", step))
				specs = bucketize(replicas)
				rebuild("disjoint rebuild")
			case op == 3:
				// Catalog growth, followed on the grouped side by ApplyCatalog
				// and then by a rebuild over the grown catalog.
				cat = extendCatalog(rng, cat)
				grouped.ApplyCatalog(cat)
				if err := flat.Rebuild(cat, replicas); err != nil {
					t.Fatal(err)
				}
				check("ApplyCatalog", false)
				rebuild("rebuild after ApplyCatalog")
			case op == 4:
				// Membership churn through ApplyBuckets: drop one bucket,
				// then rebuild over the shrunken membership.
				if len(specs) < 2 {
					continue
				}
				j := rng.Intn(len(specs))
				gone := specs[j].Key
				specs = slices.Delete(slices.Clone(specs), j, j+1)
				replicas = slices.DeleteFunc(slices.Clone(replicas), func(r Replica) bool { return r.Config.Canonical() == gone })
				grouped.ApplyBuckets(nil, []string{gone})
				if err := flat.Rebuild(cat, replicas); err != nil {
					t.Fatal(err)
				}
				check("ApplyBuckets", false)
				rebuild("rebuild after ApplyBuckets")
			case op == 5:
				// Failed builds leave the flat injector as it was; the
				// grouped one refuses a nil catalog.
				bad := append(slices.Clone(replicas), replicas[0])
				if err := flat.Rebuild(cat, bad); err == nil {
					t.Fatal("duplicate replica name accepted")
				}
				bad[len(bad)-1] = Replica{Name: "fresh-name", Power: -1}
				if err := flat.Rebuild(cat, bad); err == nil {
					t.Fatal("negative power accepted")
				}
				if err := flat.Rebuild(nil, replicas); err == nil {
					t.Fatal("nil catalog accepted")
				}
				if _, err := NewGroupInjector(nil, specs); err == nil {
					t.Fatal("nil catalog accepted")
				}
				check("failed rebuilds", false)
			}
		}
	}
}

// TestRebuildAllocations: once warm, rebuilding the flat injector over an
// input of the size it last held allocates nothing — every slice and map is
// reused.
func TestRebuildAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	catalog := NewCatalog()
	mustAdd(t, catalog, validVuln())
	for i := 0; i < 40; i++ {
		v := validVuln()
		v.ID = ID(fmt.Sprintf("CVE-%03d", i))
		v.Version = ""
		v.Product = []string{"openssl", "libsodium", "golang-crypto"}[i%3]
		v.Severity = float64(1+rng.Intn(10)) / 10
		mustAdd(t, catalog, v)
	}
	small := fleet(t)
	large := make([]Replica, 600)
	for i := range large {
		large[i] = small[i%len(small)]
		large[i].Name = fmt.Sprintf("n-%04d", i)
		large[i].Power = float64(1 + rng.Intn(9))
	}
	for _, tc := range []struct {
		name string
		a, b []Replica // equal sizes, alternated
	}{
		{"4 replicas", small, renamed(small, "x-")},
		{"600 replicas", large, renamed(large, "x-")},
	} {
		var flat Injector
		flip := false
		rebuild := func() {
			flip = !flip
			reps := tc.a
			if flip {
				reps = tc.b
			}
			if err := flat.Rebuild(catalog, reps); err != nil {
				t.Fatal(err)
			}
		}
		rebuild()
		rebuild()
		if got := testing.AllocsPerRun(50, rebuild); got != 0 {
			t.Errorf("%s: warm Rebuild allocates %.1f objects, want 0", tc.name, got)
		}
	}
}

// TestNonFinitePowerRejected: the flat reference rejects what the registry
// and the engine reject — a NaN or infinite power is an error, not a NaN
// fraction.
func TestNonFinitePowerRejected(t *testing.T) {
	cat := NewCatalog()
	mustAdd(t, cat, validVuln())
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		reps := fleet(t)
		reps[2].Power = p
		if _, err := NewInjector(cat, reps); err == nil {
			t.Errorf("NewInjector accepted power %v", p)
		}
		if _, err := Inject(cat, reps, 0); err == nil {
			t.Errorf("Inject accepted power %v", p)
		}
		if _, err := WorstWindowStepwise(cat, reps, time.Hour, time.Hour); err == nil {
			t.Errorf("WorstWindowStepwise accepted power %v", p)
		}
		in, err := NewInjector(cat, fleet(t))
		if err != nil {
			t.Fatal(err)
		}
		before := flatIndex(in)
		if err := in.Rebuild(cat, reps); err == nil {
			t.Errorf("Rebuild accepted power %v", p)
		}
		if after := flatIndex(in); after != before {
			t.Errorf("failed Rebuild changed the index:\n%s\nwas\n%s", after, before)
		}
	}
}
