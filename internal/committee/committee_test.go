package committee

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func mkCandidates(perConfig map[string]int, stake func(i int) float64) []Candidate {
	var out []Candidate
	i := 0
	// Deterministic order: iterate configs sorted by label length then name
	// is overkill; build sorted keys.
	keys := make([]string, 0, len(perConfig))
	for k := range perConfig {
		keys = append(keys, k)
	}
	// simple insertion sort for determinism
	for a := 1; a < len(keys); a++ {
		for b := a; b > 0 && keys[b] < keys[b-1]; b-- {
			keys[b], keys[b-1] = keys[b-1], keys[b]
		}
	}
	for _, cfg := range keys {
		for j := 0; j < perConfig[cfg]; j++ {
			out = append(out, Candidate{
				ID:          fmt.Sprintf("%s-%03d", cfg, j),
				Stake:       stake(i),
				ConfigLabel: cfg,
			})
			i++
		}
	}
	return out
}

func unitStake(int) float64 { return 1 }

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := mkCandidates(map[string]int{"a": 2, "b": 2}, unitStake)
	if _, err := SelectByStake(nil, good, 2); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := SelectByStake(rng, good, 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := SelectByStake(rng, good, 5); err == nil {
		t.Fatal("size > candidates accepted")
	}
	dupID := []Candidate{{ID: "x", Stake: 1, ConfigLabel: "a"}, {ID: "x", Stake: 1, ConfigLabel: "b"}}
	if _, err := SelectByStake(rng, dupID, 1); err == nil {
		t.Fatal("duplicate id accepted")
	}
	noStake := []Candidate{{ID: "x", Stake: 0, ConfigLabel: "a"}}
	if _, err := SelectByStake(rng, noStake, 1); err == nil {
		t.Fatal("zero stake accepted")
	}
	noCfg := []Candidate{{ID: "x", Stake: 1}}
	if _, err := SelectByStake(rng, noCfg, 1); err == nil {
		t.Fatal("empty config label accepted")
	}
	if _, err := SortitionVRF(nil, good, 2); err == nil {
		t.Fatal("empty seed accepted")
	}
	if _, err := SelectDiverse(good, 0); err == nil {
		t.Fatal("diverse size 0 accepted")
	}
}

func TestSelectByStakeFavorsStake(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// One whale with 100x the stake of 50 minnows.
	candidates := []Candidate{{ID: "whale", Stake: 100, ConfigLabel: "w"}}
	for i := 0; i < 50; i++ {
		candidates = append(candidates, Candidate{
			ID: fmt.Sprintf("minnow-%02d", i), Stake: 1, ConfigLabel: "m",
		})
	}
	whaleIn := 0
	const rounds = 500
	for r := 0; r < rounds; r++ {
		com, err := SelectByStake(rng, candidates, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(com) != 5 {
			t.Fatalf("committee size %d", len(com))
		}
		for _, c := range com {
			if c.ID == "whale" {
				whaleIn++
				break
			}
		}
	}
	// The whale holds 2/3 of all stake; it should almost always be seated.
	if whaleIn < rounds*9/10 {
		t.Fatalf("whale seated in %d/%d rounds, want >= 90%%", whaleIn, rounds)
	}
}

func TestSelectByStakeNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	candidates := mkCandidates(map[string]int{"a": 10, "b": 10}, unitStake)
	com, err := SelectByStake(rng, candidates, 15)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, c := range com {
		if seen[c.ID] {
			t.Fatalf("duplicate member %s", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestSortitionVRFDeterministic(t *testing.T) {
	candidates := mkCandidates(map[string]int{"a": 20, "b": 20}, func(i int) float64 { return float64(i%7 + 1) })
	a, err := SortitionVRF([]byte("epoch-9"), candidates, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SortitionVRF([]byte("epoch-9"), candidates, 8)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("same seed produced different committees")
		}
	}
	c, _ := SortitionVRF([]byte("epoch-10"), candidates, 8)
	same := true
	for i := range a {
		if a[i].ID != c[i].ID {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical committees (suspicious)")
	}
}

func TestSelectDiverseMaximisesEntropy(t *testing.T) {
	// 4 configs available but stake concentrated in config "a".
	candidates := mkCandidates(
		map[string]int{"a": 40, "b": 4, "c": 4, "d": 4},
		func(i int) float64 { return 1 },
	)
	com, err := SelectDiverse(candidates, 16)
	if err != nil {
		t.Fatal(err)
	}
	byCount, _, err := Composition(com)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy should seat 4 of each config: κ-optimal, entropy = 2.
	h, _ := byCount.Entropy()
	if math.Abs(h-2) > 1e-9 {
		t.Fatalf("diverse committee entropy = %v, want 2", h)
	}
	if !byCount.IsKappaOptimal(4) {
		t.Fatal("diverse committee not κ-optimal")
	}
}

func TestSelectDiverseBeatsStakeOnlyOnEntropy(t *testing.T) {
	// Monoculture-heavy stake: stake-weighted sortition seats mostly "a";
	// diversity-aware seats across configs.
	candidates := mkCandidates(
		map[string]int{"a": 60, "b": 6, "c": 6},
		func(i int) float64 { return 1 },
	)
	// Make "a" holders whales.
	for i := range candidates {
		if candidates[i].ConfigLabel == "a" {
			candidates[i].Stake = 50
		}
	}
	rng := rand.New(rand.NewSource(4))
	stakeCom, err := SelectByStake(rng, candidates, 12)
	if err != nil {
		t.Fatal(err)
	}
	divCom, err := SelectDiverse(candidates, 12)
	if err != nil {
		t.Fatal(err)
	}
	sc, _, _ := Composition(stakeCom)
	dc, _, _ := Composition(divCom)
	hs, _ := sc.Entropy()
	hd, _ := dc.Entropy()
	if hd <= hs {
		t.Fatalf("diverse entropy %v <= stake-only %v", hd, hs)
	}
}

func TestSelectDiversePrefersStakeOnTies(t *testing.T) {
	candidates := []Candidate{
		{ID: "rich-a", Stake: 10, ConfigLabel: "a"},
		{ID: "poor-a", Stake: 1, ConfigLabel: "a"},
		{ID: "rich-b", Stake: 10, ConfigLabel: "b"},
		{ID: "poor-b", Stake: 1, ConfigLabel: "b"},
	}
	com, err := SelectDiverse(candidates, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range com {
		if c.Stake != 10 {
			t.Fatalf("tie broken against stake: %+v", com)
		}
	}
}

func TestComposition(t *testing.T) {
	com := []Candidate{
		{ID: "1", Stake: 3, ConfigLabel: "a"},
		{ID: "2", Stake: 1, ConfigLabel: "a"},
		{ID: "3", Stake: 4, ConfigLabel: "b"},
	}
	byCount, byStake, err := Composition(com)
	if err != nil {
		t.Fatal(err)
	}
	if byCount.Weight("a") != 2 || byCount.Weight("b") != 1 {
		t.Fatalf("byCount = %v/%v", byCount.Weight("a"), byCount.Weight("b"))
	}
	if byStake.Weight("a") != 4 || byStake.Weight("b") != 4 {
		t.Fatalf("byStake = %v/%v", byStake.Weight("a"), byStake.Weight("b"))
	}
	if _, _, err := Composition(nil); err == nil {
		t.Fatal("empty committee accepted")
	}
}
