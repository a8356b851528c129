package vuln

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// sameInjector asserts two group injectors over the same membership agree
// on everything an assessment reads: the power denominator, the critical
// instants, the worst window and the full fault picture at every instant.
func sameInjector(t *testing.T, what string, got, want *GroupInjector, horizon time.Duration) {
	t.Helper()
	if got.total != want.total {
		t.Fatalf("%s: total power %v, want %v", what, got.total, want.total)
	}
	instants := want.CriticalInstants(horizon)
	if ci := got.CriticalInstants(horizon); !slices.Equal(ci, instants) {
		t.Fatalf("%s: critical instants %v, want %v", what, ci, instants)
	}
	encode := func(inj Injection, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(inj)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if g, w := encode(got.WorstWindow(horizon)), encode(want.WorstWindow(horizon)); g != w {
		t.Fatalf("%s: worst window\n got %s\nwant %s", what, g, w)
	}
	for _, at := range instants {
		if g, w := encode(got.Inject(at), nil), encode(want.Inject(at), nil); g != w {
			t.Fatalf("%s: injection at %v\n got %s\nwant %s", what, at, g, w)
		}
	}
}

// TestPropSlabBuildMatchesBucketByBucket: an injector whose buckets and
// groups were carved out of the build slabs is indistinguishable from one
// assembled a stand-alone bucket at a time.
func TestPropSlabBuildMatchesBucketByBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(20230612))
	for i := 0; i < 3000; i++ {
		cat, replicas, horizon := sweepCase(rng)
		specs := bucketize(replicas)
		slab, err := NewGroupInjector(cat, specs)
		if err != nil {
			t.Fatal(err)
		}
		single, err := NewGroupInjector(cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range rng.Perm(len(specs)) {
			single.ApplyBuckets(specs[j:j+1], nil)
		}
		sameInjector(t, fmt.Sprintf("case %d", i), slab, single, horizon)
	}
}

// TestSlabNeighboursSurviveApplyBuckets replaces, removes and re-adds
// buckets of a slab-built injector and compares it, after every step, with
// a fresh build over the membership as it then stands: patching one bucket
// must leave the others, which still live in the slabs, intact.
func TestSlabNeighboursSurviveApplyBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		cat, replicas, horizon := sweepCase(rng)
		specs := bucketize(replicas)
		gi, err := NewGroupInjector(cat, specs)
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			fresh, err := NewGroupInjector(cat, specs)
			if err != nil {
				t.Fatal(err)
			}
			sameInjector(t, fmt.Sprintf("case %d after %s", i, step), gi, fresh, horizon)
		}
		for round := 0; round < 4 && len(specs) > 0; round++ {
			j := rng.Intn(len(specs))

			// Replace: same key, a different group structure.
			changed := specs[j]
			changed.Groups = append([]*GroupSpec{{
				Units:   units(float64(1 + rng.Intn(7))),
				Latency: time.Duration(rng.Intn(5)) * 6 * time.Hour,
				Names:   []string{fmt.Sprintf("x-%03d-%d", i, round)},
			}}, changed.Groups[rng.Intn(len(changed.Groups)):]...)
			specs = slices.Clone(specs)
			specs[j] = changed
			gi.ApplyBuckets([]BucketSpec{changed}, nil)
			check("replace")

			// Remove, then re-add the same bucket.
			specs = slices.Delete(specs, j, j+1)
			gi.ApplyBuckets(nil, []string{changed.Key})
			check("remove")
			specs = slices.Insert(specs, j, changed)
			gi.ApplyBuckets([]BucketSpec{changed}, nil)
			check("re-add")
		}
	}
}
