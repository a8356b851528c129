// Package committee implements membership selection for permissionless
// protocols that form a consensus committee (the paper's third system-model
// family, citing Natoli et al.). It provides stake-weighted sortition —
// the status-quo baseline — and a diversity-aware selector that maximises
// configuration entropy greedily, the enforcement mechanism the paper's
// Challenge 1/2 discussion calls for.
package committee

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/cryptoutil"
	"repro/internal/diversity"
)

// Candidate is a stake-holder eligible for committee membership.
type Candidate struct {
	ID          string
	Stake       float64
	ConfigLabel string // attested configuration identity
}

func validate(candidates []Candidate, size int) error {
	if size <= 0 {
		return fmt.Errorf("committee: size %d <= 0", size)
	}
	if size > len(candidates) {
		return fmt.Errorf("committee: size %d exceeds %d candidates", size, len(candidates))
	}
	seen := make(map[string]bool, len(candidates))
	for _, c := range candidates {
		if c.ID == "" {
			return errors.New("committee: empty candidate id")
		}
		if seen[c.ID] {
			return fmt.Errorf("committee: duplicate candidate %s", c.ID)
		}
		seen[c.ID] = true
		if c.Stake <= 0 || math.IsNaN(c.Stake) || math.IsInf(c.Stake, 0) {
			return fmt.Errorf("committee: candidate %s has invalid stake %v", c.ID, c.Stake)
		}
		if c.ConfigLabel == "" {
			return fmt.Errorf("committee: candidate %s has no configuration label", c.ID)
		}
	}
	return nil
}

// SelectByStake draws a committee of the given size by stake-weighted
// sampling without replacement (Efraimidis–Spirakis keys: u^(1/stake)),
// the standard proof-of-stake sortition baseline.
func SelectByStake(rng *rand.Rand, candidates []Candidate, size int) ([]Candidate, error) {
	if rng == nil {
		return nil, errors.New("committee: nil rng")
	}
	if err := validate(candidates, size); err != nil {
		return nil, err
	}
	type keyed struct {
		c   Candidate
		key float64
	}
	keys := make([]keyed, len(candidates))
	for i, c := range candidates {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		keys[i] = keyed{c: c, key: math.Pow(u, 1/c.Stake)}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].key != keys[j].key {
			return keys[i].key > keys[j].key
		}
		return keys[i].c.ID < keys[j].c.ID
	})
	out := make([]Candidate, size)
	for i := 0; i < size; i++ {
		out[i] = keys[i].c
	}
	return out, nil
}

// SortitionVRF draws a committee deterministically from a public seed:
// each candidate's lottery value is Hash(seed, id) interpreted as a uniform
// u in (0,1), keyed exactly as SelectByStake. Anyone can re-run the lottery
// and verify membership — the permissionless-friendly variant (a stand-in
// for a real VRF, which needs only the same uniform output per identity).
func SortitionVRF(seed []byte, candidates []Candidate, size int) ([]Candidate, error) {
	if len(seed) == 0 {
		return nil, errors.New("committee: empty seed")
	}
	if err := validate(candidates, size); err != nil {
		return nil, err
	}
	type keyed struct {
		c   Candidate
		key float64
	}
	keys := make([]keyed, len(candidates))
	for i, c := range candidates {
		h := cryptoutil.Hash([]byte("repro/committee/vrf/v1"), seed, []byte(c.ID))
		// Use the top 52 bits for a uniform float in (0,1).
		bits := uint64(h[0])<<44 | uint64(h[1])<<36 | uint64(h[2])<<28 |
			uint64(h[3])<<20 | uint64(h[4])<<12 | uint64(h[5])<<4 | uint64(h[6])>>4
		u := (float64(bits) + 0.5) / float64(uint64(1)<<52)
		keys[i] = keyed{c: c, key: math.Pow(u, 1/c.Stake)}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].key != keys[j].key {
			return keys[i].key > keys[j].key
		}
		return keys[i].c.ID < keys[j].c.ID
	})
	out := make([]Candidate, size)
	for i := 0; i < size; i++ {
		out[i] = keys[i].c
	}
	return out, nil
}

// SelectDiverse builds a committee greedily maximising the entropy of the
// committee's configuration composition: each step adds the candidate that
// yields the largest entropy of member-counts per configuration,
// tie-breaking by higher stake then id. Stake still matters (ties are
// frequent once classes balance), but fault independence is the primary
// objective — the diversity-enforcing selection rule.
func SelectDiverse(candidates []Candidate, size int) ([]Candidate, error) {
	if err := validate(candidates, size); err != nil {
		return nil, err
	}
	remaining := append([]Candidate(nil), candidates...)
	sort.Slice(remaining, func(i, j int) bool {
		if remaining[i].Stake != remaining[j].Stake {
			return remaining[i].Stake > remaining[j].Stake
		}
		return remaining[i].ID < remaining[j].ID
	})
	counts := make(map[string]int)
	var labels []string // counts' keys, sorted
	committee := make([]Candidate, 0, size)
	for len(committee) < size {
		bestIdx := -1
		bestEntropy := math.Inf(-1)
		labels = slices.AppendSeq(labels[:0], maps.Keys(counts))
		slices.Sort(labels)
		for i, c := range remaining {
			h := entropyWithIncrement(counts, labels, c.ConfigLabel)
			// Strict improvement wins; remaining is stake-sorted so the
			// first best index is also the highest-stake choice.
			if h > bestEntropy+1e-15 {
				bestEntropy = h
				bestIdx = i
			}
		}
		chosen := remaining[bestIdx]
		committee = append(committee, chosen)
		counts[chosen.ConfigLabel]++
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return committee, nil
}

// entropyWithIncrement returns the entropy (bits) of counts with label's
// count incremented by one, without mutating counts. labels are counts'
// keys, sorted: the terms are summed in that order, so equal committees
// score equal bits.
func entropyWithIncrement(counts map[string]int, labels []string, label string) float64 {
	total := 1.0
	for _, c := range counts {
		total += float64(c)
	}
	h := 0.0
	for _, l := range labels {
		n := float64(counts[l])
		if l == label {
			n++
		}
		p := n / total
		h -= p * math.Log2(p)
	}
	if _, ok := counts[label]; !ok {
		p := 1.0 / total
		h -= p * math.Log2(p)
	}
	return h
}

// Composition returns the committee's configuration distributions: by
// member count and by stake.
func Composition(committee []Candidate) (byCount, byStake diversity.Distribution, err error) {
	if len(committee) == 0 {
		return diversity.Distribution{}, diversity.Distribution{}, errors.New("committee: empty committee")
	}
	counts := make(map[string]float64)
	stakes := make(map[string]float64)
	for _, c := range committee {
		counts[c.ConfigLabel]++
		stakes[c.ConfigLabel] += c.Stake
	}
	if byCount, err = diversity.FromWeights(counts); err != nil {
		return diversity.Distribution{}, diversity.Distribution{}, err
	}
	if byStake, err = diversity.FromWeights(stakes); err != nil {
		return diversity.Distribution{}, diversity.Distribution{}, err
	}
	return byCount, byStake, nil
}
