package committee

import (
	"fmt"
	"math/rand"
	"testing"
)

func selectorPool(configs, perConfig int) []Candidate {
	var out []Candidate
	for c := 0; c < configs; c++ {
		for i := 0; i < perConfig; i++ {
			out = append(out, Candidate{
				ID:          fmt.Sprintf("c-%d-%d", c, i),
				Stake:       float64(1 + (c*perConfig+i)%5),
				ConfigLabel: fmt.Sprintf("cfg-%d", c),
			})
		}
	}
	return out
}

func TestSelectorOptionValidation(t *testing.T) {
	if _, err := NewSelector(WithStrategy("bogus")); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := NewSelector(WithRNG(nil)); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := NewSelector(WithVRFSeed(nil)); err == nil {
		t.Fatal("empty seed accepted")
	}
	if _, err := NewSelector(nil); err == nil {
		t.Fatal("nil option accepted")
	}
	// Strategies that need inputs must get them.
	if _, err := NewSelector(WithStrategy(StakeWeighted)); err == nil {
		t.Fatal("stake-weighted selector without rng accepted")
	}
	if _, err := NewSelector(WithStrategy(VRF)); err == nil {
		t.Fatal("VRF selector without seed accepted")
	}
}

func TestSelectorMatchesDirectFunctions(t *testing.T) {
	pool := selectorPool(6, 8)
	const size = 12

	stakeSel, err := NewSelector(WithStrategy(StakeWeighted), WithRNG(rand.New(rand.NewSource(5))))
	if err != nil {
		t.Fatal(err)
	}
	got, err := stakeSel.Select(pool, size)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SelectByStake(rand.New(rand.NewSource(5)), pool, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("stake selector diverges at %d: %s vs %s", i, got[i].ID, want[i].ID)
		}
	}

	vrfSel, err := NewSelector(WithStrategy(VRF), WithVRFSeed([]byte("epoch-9")))
	if err != nil {
		t.Fatal(err)
	}
	got, err = vrfSel.Select(pool, size)
	if err != nil {
		t.Fatal(err)
	}
	want, err = SortitionVRF([]byte("epoch-9"), pool, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("vrf selector diverges at %d: %s vs %s", i, got[i].ID, want[i].ID)
		}
	}

	divSel, err := NewSelector() // DiversityAware is the default
	if err != nil {
		t.Fatal(err)
	}
	if divSel.Strategy() != DiversityAware {
		t.Fatalf("default strategy = %q", divSel.Strategy())
	}
	got, err = divSel.Select(pool, size)
	if err != nil {
		t.Fatal(err)
	}
	want, err = SelectDiverse(pool, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("diverse selector diverges at %d: %s vs %s", i, got[i].ID, want[i].ID)
		}
	}
}
