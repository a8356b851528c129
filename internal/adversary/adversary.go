// Package adversary implements attacker strategies against the registry's
// replica population, quantifying the paper's two adversary models:
//
//   - Vulnerability exploitation (Sec. II-B): the attacker holds a budget of
//     distinct exploits and picks the ones that compromise the most voting
//     power. Configuration diversity is the defence.
//   - Operator corruption (Sec. IV-B, Prop. 3 discussion): the attacker
//     bribes or runs malicious operators; each corruption buys exactly one
//     replica, so configuration abundance ω is the defence.
//
// A third model, hash-power rental (Bonneau's "why buy when you can rent"),
// prices attacks in rented power units for the Nakamoto experiments.
package adversary

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/diversity"
	"repro/internal/vuln"
)

// ExploitPlan is the outcome of vulnerability-budget planning.
type ExploitPlan struct {
	Chosen []vuln.ID // selected vulnerabilities in selection order
	// Fraction is the deduplicated compromised voting-power fraction
	// achieved by the chosen set at the planning instant.
	Fraction float64
	// Breaks reports whether Fraction exceeds the tolerated threshold.
	Breaks bool
}

// GreedyExploits picks up to budget vulnerabilities from the catalog that
// together compromise the greatest deduplicated voting power at time t,
// using greedy marginal-gain selection (ties broken by vulnerability id for
// determinism). threshold is the protocol's tolerated Byzantine fraction
// (1/3 for BFT quorums, 1/2 for Nakamoto). Powers are converted once to
// integer units (vuln.PowerUnits), so gains and the fraction are exact and
// the plan does not depend on the order replicas are listed in.
func GreedyExploits(catalog *vuln.Catalog, replicas []vuln.Replica, t time.Duration, budget int, threshold float64) (ExploitPlan, error) {
	if catalog == nil {
		return ExploitPlan{}, errors.New("adversary: nil catalog")
	}
	if budget < 0 {
		return ExploitPlan{}, fmt.Errorf("adversary: negative budget %d", budget)
	}
	units, total, err := vuln.ReplicaUnits(nil, replicas)
	if err != nil {
		return ExploitPlan{}, fmt.Errorf("adversary: %w", err)
	}
	if total == 0 {
		return ExploitPlan{}, nil
	}

	// Precompute each vulnerability's victim set at t, in exposed order
	// (power descending, then name), the order vuln's injectors take.
	type target struct {
		name  string
		units uint64
	}
	type victimSet struct {
		id      vuln.ID
		victims []target
	}
	var sets []victimSet
	for _, v := range catalog.DisclosedAt(t) {
		var exposed []target
		for i, r := range replicas {
			if v.Affects(r.Config) && v.WindowOpenAt(t, r.PatchLatency) {
				exposed = append(exposed, target{r.Name, units[i]})
			}
		}
		sort.Slice(exposed, func(i, j int) bool {
			if exposed[i].units != exposed[j].units {
				return exposed[i].units > exposed[j].units
			}
			return exposed[i].name < exposed[j].name
		})
		// vuln.SeverityTake is the shared victim-count rule, so the plan's
		// fraction can never disagree with an assessment of the same
		// instant.
		if take := vuln.SeverityTake(len(exposed), v.Severity); take > 0 {
			sets = append(sets, victimSet{id: v.ID, victims: exposed[:take]})
		}
	}

	plan := ExploitPlan{}
	owned := make(map[string]bool)
	var sum uint64
	used := make(map[vuln.ID]bool)
	for len(plan.Chosen) < budget {
		var bestGain uint64
		bestIdx := -1
		for i, vs := range sets {
			if used[vs.id] {
				continue
			}
			var gain uint64
			for _, r := range vs.victims {
				if !owned[r.name] {
					gain += r.units
				}
			}
			if gain > bestGain || (gain == bestGain && gain > 0 && bestIdx >= 0 && vs.id < sets[bestIdx].id) {
				bestGain = gain
				bestIdx = i
			}
		}
		if bestIdx < 0 || bestGain == 0 {
			break // nothing left worth exploiting
		}
		vs := sets[bestIdx]
		used[vs.id] = true
		plan.Chosen = append(plan.Chosen, vs.id)
		for _, r := range vs.victims {
			if !owned[r.name] {
				owned[r.name] = true
				sum += r.units
			}
		}
	}
	plan.Fraction = vuln.UnitFraction(sum, total)
	plan.Breaks = plan.Fraction > threshold
	return plan, nil
}

// CorruptionPlan is the outcome of operator-corruption planning.
type CorruptionPlan struct {
	Corrupted []string // member labels/names in corruption order
	Fraction  float64  // compromised power fraction
	Breaks    bool
}

// CorruptOperators bribes up to budget members, richest first — each
// corruption buys exactly one member's power regardless of how many other
// members share its configuration. Returns the plan against threshold.
func CorruptOperators(members []diversity.Member, budget int, threshold float64) (CorruptionPlan, error) {
	if budget < 0 {
		return CorruptionPlan{}, fmt.Errorf("adversary: negative budget %d", budget)
	}
	var total float64
	for _, m := range members {
		if m.Power < 0 {
			return CorruptionPlan{}, fmt.Errorf("adversary: member %s has negative power", m.Label)
		}
		total += m.Power
	}
	if total == 0 {
		return CorruptionPlan{}, nil
	}
	sorted := append([]diversity.Member(nil), members...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Power != sorted[j].Power {
			return sorted[i].Power > sorted[j].Power
		}
		return sorted[i].Label < sorted[j].Label
	})
	if budget > len(sorted) {
		budget = len(sorted)
	}
	plan := CorruptionPlan{}
	var sum float64
	for i := 0; i < budget; i++ {
		plan.Corrupted = append(plan.Corrupted, sorted[i].Label)
		sum += sorted[i].Power
	}
	plan.Fraction = sum / total
	plan.Breaks = plan.Fraction > threshold
	return plan, nil
}

// MinCorruptionsToBreak returns the smallest operator-corruption budget
// that exceeds threshold, or -1 when even corrupting everyone stays at or
// below it.
func MinCorruptionsToBreak(members []diversity.Member, threshold float64) (int, error) {
	for budget := 1; budget <= len(members); budget++ {
		plan, err := CorruptOperators(members, budget, threshold)
		if err != nil {
			return 0, err
		}
		if plan.Breaks {
			return budget, nil
		}
	}
	return -1, nil
}

// RentalCost models Bonneau-style hash-power rental: the attacker needs
// enough rented power q_extra that (owned + rented) / (total + rented)
// exceeds threshold; the cost is rented power × pricePerUnit × duration
// (in hours). It returns the rented units and the cost, or an error when
// threshold >= 1.
func RentalCost(ownedPower, totalPower, threshold, pricePerUnitHour float64, duration time.Duration) (rented, cost float64, err error) {
	if totalPower <= 0 || ownedPower < 0 || ownedPower > totalPower {
		return 0, 0, fmt.Errorf("adversary: invalid powers owned=%v total=%v", ownedPower, totalPower)
	}
	if threshold <= 0 || threshold >= 1 {
		return 0, 0, fmt.Errorf("adversary: threshold %v out of (0,1)", threshold)
	}
	if pricePerUnitHour < 0 || duration < 0 {
		return 0, 0, errors.New("adversary: negative price or duration")
	}
	// Solve (owned + r) / (total + r) > threshold for r.
	if ownedPower/totalPower > threshold {
		return 0, 0, nil // already above threshold
	}
	rented = (threshold*totalPower - ownedPower) / (1 - threshold)
	cost = rented * pricePerUnitHour * duration.Hours()
	return rented, cost, nil
}
