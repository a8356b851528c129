package diversity

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/vuln"
)

// PowerClass is an aggregate of members holding identical voting power —
// the unit the bucketed registry reasons in. A population's member-level
// metrics are a pure function of its power classes, which is what lets the
// incremental assessment path compute them in O(#classes) instead of
// sorting every member.
type PowerClass struct {
	Units uint64 // each member's power, in units of 1e-9
	Count int
}

// MinOperatorFaultsForClasses is Population.MinOperatorFaultsToExceed
// computed over power classes: the minimum number of member-level faults
// whose combined power strictly exceeds threshold × total. Classes are
// walked in descending power order; the boundary class is resolved by
// binary search on the same exact share test the member-level walk makes,
// so the two agree, in any order of the input. Input already in descending
// power order (a registry snapshot's histogram) is walked in place; any
// other order is sorted in a copy, never in the caller's slice. The
// classes' total must not pass vuln.MaxPowerUnits.
func MinOperatorFaultsForClasses(classes []PowerClass, threshold float64) (int, error) {
	sorted := classes
	if !slices.IsSortedFunc(classes, descendingUnits) {
		sorted = slices.Clone(classes)
		slices.SortFunc(sorted, descendingUnits)
	}
	var total uint64
	for _, c := range sorted {
		total += uint64(c.Count) * c.Units
	}
	if total == 0 {
		return 0, ErrNoWeight
	}
	var cum uint64
	taken := 0
	for _, c := range sorted {
		if vuln.UnitFraction(cum+uint64(c.Count)*c.Units, total) > threshold {
			j := sort.Search(c.Count, func(j int) bool {
				return vuln.UnitFraction(cum+uint64(j+1)*c.Units, total) > threshold
			})
			return taken + j + 1, nil
		}
		cum += uint64(c.Count) * c.Units
		taken += c.Count
	}
	return -1, nil
}

// descendingUnits orders power classes by Units, largest first.
func descendingUnits(a, b PowerClass) int { return cmp.Compare(b.Units, a.Units) }

// ReportForAggregates computes the full population Report from aggregates
// alone: the power distribution over labels, the member count, the
// per-label abundance counts, and the power classes. It is the O(#buckets)
// counterpart of ReportForPopulation and gives the identical report, which
// the incremental-vs-cold property tests pin down.
func ReportForAggregates(d Distribution, members int, abundance []int, classes []PowerClass) (Report, error) {
	r, err := ReportForDistribution(d)
	if err != nil {
		return Report{}, err
	}
	r.Members = members
	if len(abundance) > 0 {
		omega := abundance[0]
		for _, c := range abundance[1:] {
			if c != omega {
				omega = 0
				break
			}
		}
		r.Omega = omega
	}
	if mf, err := MinOperatorFaultsForClasses(classes, 0.5); err == nil {
		r.MinOperatorFaultsToHalf = mf
	}
	return r, nil
}
