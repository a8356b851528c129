// Package diversity implements the paper's quantitative core (Sec. IV):
// Shannon-entropy measurement of replica-configuration diversity,
// κ-optimal fault independence (Definition 1), configuration abundance and
// (κ, ω)-optimal resilience (Definition 2), plus the operational resilience
// metric used to compare systems (minimum number of independent faults whose
// combined voting power exceeds a protocol's tolerance threshold).
//
// Entropy is measured in bits (log base 2) throughout, matching Example 1:
// eight uniformly weighted, uniquely configured BFT replicas have entropy
// exactly 3.
package diversity

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// DefaultTolerance is the relative tolerance used by the optimality
// predicates when comparing floating-point weights.
const DefaultTolerance = 1e-9

// ErrNoWeight is returned when a distribution has no positive weight.
var ErrNoWeight = errors.New("diversity: distribution has no positive weight")

// Distribution is a weighting of configuration labels. Weights are
// non-negative and need not sum to one; all metrics normalize internally.
// The paper's p = (p1, ..., pk) over the configuration space D corresponds
// to the normalized weights; labels identify the d_i.
type Distribution struct {
	labels  []string
	weights []float64
	total   float64
}

// FromWeights builds a distribution from a label→weight map. Negative
// weights are rejected; zero weights are kept (the paper's p may contain
// zero entries — they simply do not contribute to entropy or support).
func FromWeights(weights map[string]float64) (Distribution, error) {
	labels := make([]string, 0, len(weights))
	for label := range weights {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	ws := make([]float64, len(labels))
	for i, label := range labels {
		ws[i] = weights[label]
	}
	return FromSorted(labels, ws)
}

// FromSorted builds a distribution from parallel label and weight slices
// already in canonical order: labels strictly ascending (so no duplicates),
// weights[i] belonging to labels[i]. It is the constructor for producers
// that keep their labels sorted anyway (the registry's bucket list) and
// yields exactly the distribution FromWeights would. The distribution keeps
// both slices: the caller must not modify them afterwards.
func FromSorted(labels []string, weights []float64) (Distribution, error) {
	if len(labels) != len(weights) {
		return Distribution{}, fmt.Errorf("diversity: %d labels for %d weights", len(labels), len(weights))
	}
	d := Distribution{labels: labels, weights: weights}
	for i, w := range weights {
		if i > 0 && labels[i-1] >= labels[i] {
			return Distribution{}, fmt.Errorf("diversity: labels not strictly ascending at %q", labels[i])
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return Distribution{}, fmt.Errorf("diversity: invalid weight %v for %q", w, labels[i])
		}
		d.total += w
	}
	return d, nil
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
func (d Distribution) Total() float64 { return d.total }

// Labels returns the labels in canonical (sorted) order.
func (d Distribution) Labels() []string { return append([]string(nil), d.labels...) }

// Weight returns the raw weight of a label (zero if absent).
func (d Distribution) Weight(label string) float64 {
	i := sort.SearchStrings(d.labels, label)
	if i < len(d.labels) && d.labels[i] == label {
		return d.weights[i]
	}
	return 0
}

// Probabilities returns the normalized weights in label order. It returns
// ErrNoWeight when the distribution has no positive weight.
func (d Distribution) Probabilities() ([]float64, error) {
	if d.total <= 0 {
		return nil, ErrNoWeight
	}
	ps := make([]float64, len(d.weights))
	for i, w := range d.weights {
		ps[i] = w / d.total
	}
	return ps, nil
}

// Support reports the number of labels with positive weight — |p'| in
// Definition 1.
func (d Distribution) Support() int {
	n := 0
	for _, w := range d.weights {
		if w > 0 {
			n++
		}
	}
	return n
}

// MaxShare returns the largest normalized weight (the strongest oligopolist)
// and its label. It returns ErrNoWeight for an all-zero distribution.
func (d Distribution) MaxShare() (string, float64, error) {
	if d.total <= 0 {
		return "", 0, ErrNoWeight
	}
	best, bestIdx := -1.0, -1
	for i, w := range d.weights {
		if w > best {
			best, bestIdx = w, i
		}
	}
	return d.labels[bestIdx], best / d.total, nil
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

// IsUniform reports whether all positive weights are equal within tol
// (relative to the mean positive weight). tol <= 0 uses DefaultTolerance.
func (d Distribution) IsUniform(tol float64) bool {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	var sum float64
	n := 0
	for _, w := range d.weights {
		if w > 0 {
			sum += w
			n++
		}
	}
	if n == 0 {
		return false
	}
	mean := sum / float64(n)
	for _, w := range d.weights {
		if w > 0 && math.Abs(w-mean) > tol*mean {
			return false
		}
	}
	return true
}

// IsKappaOptimal implements Definition 1: the distribution achieves
// κ-optimal fault independence iff exactly κ labels have non-zero weight
// and all non-zero weights are equal (within tol).
func (d Distribution) IsKappaOptimal(kappa int, tol float64) bool {
	return d.Support() == kappa && kappa > 0 && d.IsUniform(tol)
}

// Kappa returns the κ for which the distribution is κ-optimal, or
// (0, false) when the distribution is not κ-optimal for any κ.
func (d Distribution) Kappa(tol float64) (int, bool) {
	s := d.Support()
	if s > 0 && d.IsUniform(tol) {
		return s, true
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
	ps, err := d.Probabilities()
	if err != nil {
		return 0, err
	}
	slices.Sort(ps)
	return minFaults(ps, threshold), nil
}

// minFaults walks ascending-sorted normalized weights from the largest down
// and returns how many it takes for their running sum to strictly exceed
// threshold, or -1 when the positive ones never do.
func minFaults(ascending []float64, threshold float64) int {
	cum := 0.0
	for i := len(ascending) - 1; i >= 0 && ascending[i] > 0; i-- {
		cum += ascending[i]
		if cum > threshold {
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
// the two inputs' weights, modelling populations joining.
func Merge(a, b Distribution) Distribution {
	m := make(map[string]float64, a.Len()+b.Len())
	for i, label := range a.labels {
		m[label] += a.weights[i]
	}
	for i, label := range b.labels {
		m[label] += b.weights[i]
	}
	d, err := FromWeights(m)
	if err != nil {
		// Unreachable: inputs were validated non-negative and finite.
		panic(err)
	}
	return d
}

// Scale returns a copy with every weight multiplied by factor (> 0). The
// relative configuration abundance — and hence every diversity metric — is
// invariant under Scale; Proposition 1's "unless the relative configuration
// abundance remains identical" clause is exactly this invariance.
func (d Distribution) Scale(factor float64) (Distribution, error) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return Distribution{}, fmt.Errorf("diversity: invalid scale factor %v", factor)
	}
	out := Distribution{
		labels:  append([]string(nil), d.labels...),
		weights: make([]float64, len(d.weights)),
		total:   d.total * factor,
	}
	for i, w := range d.weights {
		out.weights[i] = w * factor
	}
	return out, nil
}
