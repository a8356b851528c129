// Package planner provides Lazarus-style automatic diversity management
// (the paper cites Garcia et al.'s Lazarus as the permissioned-world tool
// this problem lacks in permissionless settings): given a component catalog
// and a fleet size, assign configurations that minimise *component-level*
// fault domains.
//
// Component-level analysis refines the configuration-level view used by
// Definition 1: two replicas with distinct configurations still share a
// fault domain for every component they have in common (a zero-day in
// openssl hits every stack that embeds openssl, whatever else differs).
// The planner therefore measures exposure per component and balances
// component usage across the fleet, not just configuration uniqueness.
package planner

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/vuln"
)

// Exposure is the voting-power share carried by replicas whose stack
// includes a given component — the size of that component's fault domain.
type Exposure struct {
	Component config.Component
	Share     float64
}

// Exposures computes the fault-domain share of every component present in
// the fleet, sorted by descending share (ties by component key).
func Exposures(replicas []vuln.Replica) ([]Exposure, error) {
	var total float64
	for _, r := range replicas {
		if r.Power < 0 {
			return nil, fmt.Errorf("planner: replica %s has negative power", r.Name)
		}
		total += r.Power
	}
	if total <= 0 {
		return nil, errors.New("planner: no voting power")
	}
	byKey := make(map[string]Exposure)
	for _, r := range replicas {
		for _, c := range r.Config.Components() {
			e := byKey[c.Key()]
			e.Component = c
			e.Share += r.Power / total
			byKey[c.Key()] = e
		}
	}
	out := make([]Exposure, 0, len(byKey))
	for _, e := range byKey {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Component.Key() < out[j].Component.Key()
	})
	return out, nil
}

// WorstExposure returns the largest component fault domain — the power an
// adversary gains from the single best component zero-day.
func WorstExposure(replicas []vuln.Replica) (Exposure, error) {
	es, err := Exposures(replicas)
	if err != nil {
		return Exposure{}, err
	}
	return es[0], nil
}

// MinComponentFaultsToExceed returns the minimum number of component-level
// zero-days whose combined fault domains exceed threshold of total power
// (greedy marginal gain over replica sets, deduplicating replicas hit by
// several chosen components). It returns -1 when even every component
// together cannot exceed the threshold.
func MinComponentFaultsToExceed(replicas []vuln.Replica, threshold float64) (int, error) {
	var total float64
	for _, r := range replicas {
		if r.Power < 0 {
			return 0, fmt.Errorf("planner: replica %s has negative power", r.Name)
		}
		total += r.Power
	}
	if total <= 0 {
		return 0, errors.New("planner: no voting power")
	}
	// victims per component key, as ascending replica indices: every sum
	// walks them in that order, so equal gains compare equal.
	victims := make(map[string][]int)
	keys := make([]string, 0)
	for i, r := range replicas {
		for _, c := range r.Config.Components() {
			k := c.Key()
			if victims[k] == nil {
				keys = append(keys, k)
			}
			victims[k] = append(victims[k], i)
		}
	}
	sort.Strings(keys)
	owned := make([]bool, len(replicas))
	count := 0
	for {
		bestGain, bestKey := 0.0, ""
		for _, k := range keys {
			gain := 0.0
			for _, idx := range victims[k] {
				if !owned[idx] {
					gain += replicas[idx].Power
				}
			}
			if gain > bestGain {
				bestGain, bestKey = gain, k
			}
		}
		if bestKey == "" {
			return -1, nil
		}
		count++
		for _, idx := range victims[bestKey] {
			owned[idx] = true
		}
		delete(victims, bestKey)
		var sum float64
		for idx, o := range owned {
			if o {
				sum += replicas[idx].Power
			}
		}
		if sum > threshold*total {
			return count, nil
		}
	}
}

// GreedyAssign builds n configurations from the catalog, choosing per
// class the least-used component so far (ties broken by registration
// order). The result balances every class's fault domains to within one
// replica of the optimum n/choices.
func GreedyAssign(cat *config.Catalog, n int) ([]config.Configuration, error) {
	if cat == nil {
		return nil, errors.New("planner: nil catalog")
	}
	if n < 1 {
		return nil, fmt.Errorf("planner: n %d < 1", n)
	}
	var choices [][]config.Component
	for _, class := range config.Classes() {
		if cs := cat.Choices(class); len(cs) > 0 {
			choices = append(choices, cs)
		}
	}
	// A catalog holds one component per key, so a component is its own key.
	usage := make(map[config.Component]int)
	picked := make([]config.Component, len(choices))
	out := make([]config.Configuration, n)
	for i := range out {
		for j, cs := range choices {
			best := cs[0]
			for _, c := range cs[1:] {
				if usage[c] < usage[best] {
					best = c
				}
			}
			usage[best]++
			picked[j] = best
		}
		out[i] = config.MustNew(picked...) // Catalog.Add validated every choice
	}
	return out, nil
}

// Rand is the random source interface used by RandomAssign.
type Rand interface {
	Intn(n int) int
}

// RandomAssign draws n configurations uniformly from the catalog — the
// "no manager" permissionless baseline.
func RandomAssign(cat *config.Catalog, n int, rng Rand) ([]config.Configuration, error) {
	if cat == nil {
		return nil, errors.New("planner: nil catalog")
	}
	if n < 1 {
		return nil, fmt.Errorf("planner: n %d < 1", n)
	}
	if rng == nil {
		return nil, errors.New("planner: nil rng")
	}
	out := make([]config.Configuration, n)
	for i := range out {
		out[i] = cat.RandomConfiguration(rng)
	}
	return out, nil
}

// MonocultureAssign gives every replica the catalog's first choice per
// class — the worst case.
func MonocultureAssign(cat *config.Catalog, n int) ([]config.Configuration, error) {
	if cat == nil {
		return nil, errors.New("planner: nil catalog")
	}
	if n < 1 {
		return nil, fmt.Errorf("planner: n %d < 1", n)
	}
	var firsts []config.Component
	for _, class := range config.Classes() {
		if choices := cat.Choices(class); len(choices) > 0 {
			firsts = append(firsts, choices[0])
		}
	}
	cfg := config.MustNew(firsts...) // Catalog.Add validated every choice
	out := make([]config.Configuration, n)
	for i := range out {
		out[i] = cfg
	}
	return out, nil
}

// Fleet materialises an assignment as unit-power vuln.Replicas.
func Fleet(configs []config.Configuration) []vuln.Replica {
	out := make([]vuln.Replica, len(configs))
	for i, cfg := range configs {
		out[i] = vuln.Replica{Name: fmt.Sprintf("r%03d", i), Config: cfg, Power: 1}
	}
	return out
}

// Plan summarises an assignment's component-level fault independence.
type Plan struct {
	Strategy            string
	WorstComponentShare float64
	WorstComponent      string
	FaultsToThird       int
	FaultsToHalf        int
	DistinctConfigs     int
}

// Evaluate computes the Plan summary for an assignment.
func Evaluate(strategy string, configs []config.Configuration) (Plan, error) {
	replicas := Fleet(configs)
	worst, err := WorstExposure(replicas)
	if err != nil {
		return Plan{}, err
	}
	third, err := MinComponentFaultsToExceed(replicas, 1.0/3.0)
	if err != nil {
		return Plan{}, err
	}
	half, err := MinComponentFaultsToExceed(replicas, 0.5)
	if err != nil {
		return Plan{}, err
	}
	distinct := make(map[config.ID]bool)
	for _, cfg := range configs {
		distinct[cfg.Digest()] = true
	}
	return Plan{
		Strategy:            strategy,
		WorstComponentShare: worst.Share,
		WorstComponent:      worst.Component.Key(),
		FaultsToThird:       third,
		FaultsToHalf:        half,
		DistinctConfigs:     len(distinct),
	}, nil
}
