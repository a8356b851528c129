package diversity

import (
	"cmp"
	"slices"
	"sort"
)

// PowerClass is an aggregate of members holding identical voting power —
// the unit the bucketed registry reasons in. A population's member-level
// metrics are a pure function of its power classes, which is what lets the
// incremental assessment path compute them in O(#classes) instead of
// sorting every member.
type PowerClass struct {
	Power float64
	Count int
}

// MinOperatorFaultsForClasses is Population.MinOperatorFaultsToExceed
// computed over power classes: the minimum number of member-level faults
// whose combined power strictly exceeds threshold × total. Classes are
// walked in descending power order; the boundary class is resolved by
// binary search on the same cum + j·p > T predicate the member-level loop
// evaluates, so for integral powers the two are bit-identical. The total
// is summed over the sorted classes, so the answer is the same for every
// order of the input.
func MinOperatorFaultsForClasses(classes []PowerClass, threshold float64) (int, error) {
	sorted := append([]PowerClass(nil), classes...)
	slices.SortFunc(sorted, func(a, b PowerClass) int {
		return cmp.Or(cmp.Compare(b.Power, a.Power), cmp.Compare(a.Count, b.Count))
	})
	var total float64
	n := 0
	for _, c := range sorted {
		total += c.Power * float64(c.Count)
		n += c.Count
	}
	if n == 0 || total <= 0 {
		return 0, ErrNoWeight
	}
	limit := threshold * total
	cum := 0.0
	taken := 0
	for _, c := range sorted {
		if cum+float64(c.Count)*c.Power > limit {
			j := sort.Search(c.Count, func(j int) bool {
				return cum+float64(j+1)*c.Power > limit
			})
			return taken + j + 1, nil
		}
		cum += float64(c.Count) * c.Power
		taken += c.Count
	}
	return -1, nil
}

// ReportForAggregates computes the full population Report from aggregates
// alone: the power distribution over labels, the member count, the
// per-label abundance counts, and the power classes. It is the O(#buckets)
// counterpart of ReportForPopulation — for integral powers the results are
// bit-identical, which the incremental-vs-cold property tests pin down.
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
