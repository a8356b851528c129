// Package diversity implements the paper's quantitative core (Sec. IV):
// Shannon-entropy measurement of replica-configuration diversity,
// κ-optimal fault independence (Definition 1), configuration abundance and
// (κ, ω)-optimal resilience (Definition 2), plus the operational resilience
// metric used to compare systems (minimum number of independent faults whose
// combined voting power exceeds a protocol's tolerance threshold).
//
// A distribution holds voting power in the exact integer units of
// vuln.PowerUnits, so the paper's definitions are decided exactly:
// Definitions 1 and 2 compare units with ==, and a fault count adds units
// and tests the running share against the threshold with a strict >, the
// comparison core.Substrate.Safe makes. Only the entropy family (Shannon
// entropy, Simpson and Hill numbers) is float, computed from the correctly
// rounded shares in label order.
//
// Entropy is measured in bits (log base 2) throughout, matching Example 1:
// eight uniformly weighted, uniquely configured BFT replicas have entropy
// exactly 3.
package diversity

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/vuln"
)

// ErrNoWeight is returned when a distribution has no positive weight.
var ErrNoWeight = errors.New("diversity: distribution has no positive weight")

// Distribution is a weighting of configuration labels in integer units of
// 1e-9 power. Weights need not sum to one; all metrics normalize
// internally. The paper's p = (p1, ..., pk) over the configuration space D
// corresponds to the normalized weights; labels identify the d_i.
type Distribution struct {
	labels []string
	units  []uint64
	total  uint64
}

// FromWeights builds a distribution from a label→weight map, converting
// each weight once with vuln.PowerUnits: what it refuses (a negative or
// non-finite weight, a positive one below half a unit, one past the
// ceiling) is an error naming the label. Zero weights are kept (the
// paper's p may contain zero entries — they simply do not contribute to
// entropy or support).
func FromWeights(weights map[string]float64) (Distribution, error) {
	labels := slices.Sorted(maps.Keys(weights))
	units := make([]uint64, len(labels))
	for i, label := range labels {
		u, err := vuln.PowerUnits(weights[label])
		if err != nil {
			return Distribution{}, fmt.Errorf("diversity: weight of %q: %w", label, err)
		}
		units[i] = u
	}
	return FromSorted(labels, units)
}

// FromSorted builds a distribution from parallel label and unit slices
// already in canonical order: labels strictly ascending (so no duplicates),
// units[i] belonging to labels[i]. It is the constructor for producers
// that keep their labels sorted anyway (the registry's bucket list). The
// distribution keeps both slices: the caller must not modify them
// afterwards. A total past vuln.MaxPowerUnits is an error.
func FromSorted(labels []string, units []uint64) (Distribution, error) {
	if len(labels) != len(units) {
		return Distribution{}, fmt.Errorf("diversity: %d labels for %d weights", len(labels), len(units))
	}
	d := Distribution{labels: labels, units: units}
	for i, u := range units {
		if i > 0 && labels[i-1] >= labels[i] {
			return Distribution{}, fmt.Errorf("diversity: labels not strictly ascending at %q", labels[i])
		}
		var ok bool
		if d.total, ok = vuln.AddUnits(d.total, 1, u); !ok {
			return Distribution{}, fmt.Errorf("diversity: weight of %q takes the total past %d units of 1e-9", labels[i], uint64(vuln.MaxPowerUnits))
		}
	}
	return d, nil
}

// fromUnits builds a distribution from a label→units map.
func fromUnits(m map[string]uint64) (Distribution, error) {
	labels := slices.Sorted(maps.Keys(m))
	units := make([]uint64, len(labels))
	for i, label := range labels {
		units[i] = m[label]
	}
	return FromSorted(labels, units)
}

// FromSlice builds a distribution whose labels are the indices "0", "1", ...
// It is the convenient constructor for the paper's anonymous p vectors.
func FromSlice(weights []float64) (Distribution, error) {
	m := make(map[string]float64, len(weights))
	for i, w := range weights {
		m[fmt.Sprintf("%06d", i)] = w
	}
	return FromWeights(m)
}

// MustFromSlice is FromSlice panicking on error, for fixtures with known
// valid inputs.
func MustFromSlice(weights []float64) Distribution {
	d, err := FromSlice(weights)
	if err != nil {
		panic(err)
	}
	return d
}

// Uniform returns the uniform distribution over k configurations, i.e. the
// κ-optimal distribution of Definition 1 with κ = k.
func Uniform(k int) Distribution {
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 1
	}
	return MustFromSlice(weights)
}

// Len reports the number of labels, including zero-weight ones (the k of
// the paper's p = (p1,...,pk)).
func (d Distribution) Len() int { return len(d.labels) }

// Total returns the sum of weights (the paper's n_t when weights are raw
// voting power).
func (d Distribution) Total() float64 { return vuln.UnitsPower(d.total) }

// Labels returns the labels in canonical (sorted) order.
func (d Distribution) Labels() []string { return append([]string(nil), d.labels...) }

// Weight returns the raw weight of a label (zero if absent).
func (d Distribution) Weight(label string) float64 {
	i := sort.SearchStrings(d.labels, label)
	if i < len(d.labels) && d.labels[i] == label {
		return vuln.UnitsPower(d.units[i])
	}
	return 0
}

// Probabilities returns the normalized weights in label order, each one
// correctly rounded division of exact units. It returns ErrNoWeight when
// the distribution has no positive weight.
func (d Distribution) Probabilities() ([]float64, error) {
	if d.total == 0 {
		return nil, ErrNoWeight
	}
	ps := make([]float64, len(d.units))
	for i, u := range d.units {
		ps[i] = vuln.UnitFraction(u, d.total)
	}
	return ps, nil
}

// Support reports the number of labels with positive weight — |p'| in
// Definition 1.
func (d Distribution) Support() int {
	n := 0
	for _, u := range d.units {
		if u > 0 {
			n++
		}
	}
	return n
}

// MaxShare returns the largest normalized weight (the strongest oligopolist)
// and its label. It returns ErrNoWeight for an all-zero distribution.
func (d Distribution) MaxShare() (string, float64, error) {
	if d.total == 0 {
		return "", 0, ErrNoWeight
	}
	best := 0
	for i, u := range d.units {
		if u > d.units[best] {
			best = i
		}
	}
	return d.labels[best], vuln.UnitFraction(d.units[best], d.total), nil
}

// Entropy returns the Shannon entropy H(p) in bits, with the paper's
// convention 0·log(1/0) = 0. It returns ErrNoWeight when no label has
// positive weight.
func (d Distribution) Entropy() (float64, error) {
	ps, err := d.Probabilities()
	if err != nil {
		return 0, err
	}
	return entropyBits(ps), nil
}

// entropyBits is H(p) in bits over normalized weights, summed in label
// order.
func entropyBits(ps []float64) float64 {
	h := 0.0
	for _, p := range ps {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// normalizeEntropy is h over the maximum entropy of the given support.
func normalizeEntropy(h float64, support int) float64 {
	if support <= 1 {
		return 0
	}
	return h / math.Log2(float64(support))
}

// NormalizedEntropy returns H(p) / log2(support), the fraction of the
// maximum entropy achievable with the same support — 1 exactly when the
// distribution is κ-optimal. A single-configuration distribution has
// normalized entropy 0 by convention.
func (d Distribution) NormalizedEntropy() (float64, error) {
	h, err := d.Entropy()
	if err != nil {
		return 0, err
	}
	return normalizeEntropy(h, d.Support()), nil
}

// EffectiveConfigurations returns 2^H — the Hill number of order 1, i.e.
// the number of equally weighted configurations that would produce the same
// entropy. It is the natural "how diverse is this really" scalar for
// comparing Bitcoin's oligopoly against an n-replica BFT cluster.
func (d Distribution) EffectiveConfigurations() (float64, error) {
	h, err := d.Entropy()
	if err != nil {
		return 0, err
	}
	return math.Exp2(h), nil
}

// SimpsonIndex returns Σ p_i² — the probability that two independently
// sampled units of voting power share a configuration (and hence a fault
// domain). Lower is more diverse.
func (d Distribution) SimpsonIndex() (float64, error) {
	ps, err := d.Probabilities()
	if err != nil {
		return 0, err
	}
	return simpson(ps), nil
}

// simpson is Σ p_i² over normalized weights, summed in label order.
func simpson(ps []float64) float64 {
	s := 0.0
	for _, p := range ps {
		s += p * p
	}
	return s
}

// GiniSimpson returns 1 - Σ p_i², the complementary diversity index.
func (d Distribution) GiniSimpson() (float64, error) {
	s, err := d.SimpsonIndex()
	if err != nil {
		return 0, err
	}
	return 1 - s, nil
}

// HillNumber returns the Hill diversity of order q: (Σ p_i^q)^(1/(1-q)),
// with the limits q→1 giving 2^H and q→0 giving the support size. Hill
// numbers let the experiments show that different diversity orders rank
// the same systems consistently.
func (d Distribution) HillNumber(q float64) (float64, error) {
	ps, err := d.Probabilities()
	if err != nil {
		return 0, err
	}
	if math.Abs(q-1) < 1e-12 {
		return d.EffectiveConfigurations()
	}
	sum := 0.0
	for _, p := range ps {
		if p > 0 {
			sum += math.Pow(p, q)
		}
	}
	return math.Pow(sum, 1/(1-q)), nil
}

// IsUniform reports whether the distribution has positive weight and all
// positive weights are equal, unit for unit.
func (d Distribution) IsUniform() bool {
	var w uint64
	for _, u := range d.units {
		if u == 0 {
			continue
		}
		if w != 0 && u != w {
			return false
		}
		w = u
	}
	return w != 0
}

// IsKappaOptimal implements Definition 1: the distribution achieves
// κ-optimal fault independence iff exactly κ labels have non-zero weight
// and all non-zero weights are equal.
func (d Distribution) IsKappaOptimal(kappa int) bool {
	return kappa > 0 && d.Support() == kappa && d.IsUniform()
}

// Kappa returns the κ for which the distribution is κ-optimal, or
// (0, false) when the distribution is not κ-optimal for any κ.
func (d Distribution) Kappa() (int, bool) {
	if d.IsUniform() {
		return d.Support(), true
	}
	return 0, false
}

// MinFaultsToExceed returns the minimum number of *distinct* configuration
// faults whose combined normalized voting power strictly exceeds threshold.
// This is the operational resilience of Sec. II-C: an adversary holding one
// exploit per configuration needs this many independent vulnerabilities to
// push Σ f_t^i past the protocol's tolerance. It returns (0, ErrNoWeight)
// for a distribution with no positive weight, and (-1, nil) when even
// compromising every configuration cannot exceed the threshold
// (threshold >= 1).
func (d Distribution) MinFaultsToExceed(threshold float64) (int, error) {
	if d.total == 0 {
		return 0, ErrNoWeight
	}
	us := slices.Clone(d.units)
	slices.Sort(us)
	return minFaults(us, d.total, threshold), nil
}

// minFaults walks ascending-sorted units from the largest down and returns
// how many it takes for their running share of total to strictly exceed
// threshold, or -1 when the positive ones never do. The share is one
// correctly rounded division of exact sums, so the count agrees with
// core.Substrate.Safe on the same units.
func minFaults(ascending []uint64, total uint64, threshold float64) int {
	var cum uint64
	for i := len(ascending) - 1; i >= 0 && ascending[i] > 0; i-- {
		cum += ascending[i]
		if vuln.UnitFraction(cum, total) > threshold {
			return len(ascending) - i
		}
	}
	return -1
}

// TopShares returns the n largest normalized weights with their labels, in
// descending order, for experiment tables.
func (d Distribution) TopShares(n int) ([]string, []float64, error) {
	ps, err := d.Probabilities()
	if err != nil {
		return nil, nil, err
	}
	idx := make([]int, len(ps))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if ps[idx[a]] != ps[idx[b]] {
			return ps[idx[a]] > ps[idx[b]]
		}
		return d.labels[idx[a]] < d.labels[idx[b]]
	})
	if n > len(idx) {
		n = len(idx)
	}
	labels := make([]string, n)
	shares := make([]float64, n)
	for i := 0; i < n; i++ {
		labels[i] = d.labels[idx[i]]
		shares[i] = ps[idx[i]]
	}
	return labels, shares, nil
}

// Merge returns a distribution whose weight for each label is the sum of
// the two inputs' weights, modelling populations joining. A merged total
// past vuln.MaxPowerUnits is an error.
func Merge(a, b Distribution) (Distribution, error) {
	m := make(map[string]uint64, a.Len()+b.Len())
	for i, label := range a.labels {
		m[label] += a.units[i]
	}
	for i, label := range b.labels {
		m[label] += b.units[i]
	}
	return fromUnits(m)
}

// Scale returns a copy with every weight multiplied by factor (> 0) and
// rounded to the unit (vuln.WeighUnits). For an integral factor the
// relative configuration abundance — and hence every diversity metric — is
// unchanged; Proposition 1's "unless the relative configuration abundance
// remains identical" clause is exactly this invariance.
func (d Distribution) Scale(factor float64) (Distribution, error) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return Distribution{}, fmt.Errorf("diversity: invalid scale factor %v", factor)
	}
	units := make([]uint64, len(d.units))
	for i, u := range d.units {
		w, err := vuln.WeighUnits(u, factor)
		if err != nil {
			return Distribution{}, fmt.Errorf("diversity: %w", err)
		}
		units[i] = w
	}
	return FromSorted(slices.Clone(d.labels), units)
}
