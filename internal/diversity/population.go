package diversity

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/vuln"
)

// Member is one replica in a population: a configuration label plus the
// voting power it carries (hash rate for Nakamoto, stake or replica weight
// for BFT/committee protocols).
type Member struct {
	Label string  // configuration identity (e.g. config.ID.String())
	Power float64 // non-negative voting power
}

// Population is a multiset of replicas. It is the concrete object behind
// the paper's abundance discussion (Sec. IV-B): several members may share a
// configuration label, and "configuration abundance" counts members per
// label while the power distribution weighs labels by total power.
type Population struct {
	members []Member
	units   []uint64 // members[i].Power converted with vuln.PowerUnits
	total   uint64
}

// NewPopulation validates and copies the member list.
func NewPopulation(members []Member) (*Population, error) {
	p := &Population{members: make([]Member, 0, len(members)), units: make([]uint64, 0, len(members))}
	for i, m := range members {
		if err := p.Add(m); err != nil {
			return nil, fmt.Errorf("%w (member %d)", err, i)
		}
	}
	return p, nil
}

// UniformPopulation returns a population of n members with unit power where
// member i gets configuration label labels[i % len(labels)] — i.e. every
// configuration reaches abundance n/len(labels) when len(labels) divides n.
func UniformPopulation(n int, labels []string) (*Population, error) {
	if n <= 0 || len(labels) == 0 {
		return nil, fmt.Errorf("diversity: uniform population needs n > 0 and labels (n=%d, labels=%d)", n, len(labels))
	}
	members := make([]Member, n)
	for i := range members {
		members[i] = Member{Label: labels[i%len(labels)], Power: 1}
	}
	return NewPopulation(members)
}

// Size reports the number of members.
func (p *Population) Size() int { return len(p.members) }

// Members returns a copy of the member list.
func (p *Population) Members() []Member { return append([]Member(nil), p.members...) }

// Add appends a member (join event). It refuses an empty label, a power
// vuln.PowerUnits refuses and a total past vuln.MaxPowerUnits.
func (p *Population) Add(m Member) error {
	if m.Label == "" {
		return errors.New("diversity: empty label")
	}
	u, err := vuln.PowerUnits(m.Power)
	if err != nil {
		return fmt.Errorf("diversity: %w", err)
	}
	total, ok := vuln.AddUnits(p.total, 1, u)
	if !ok {
		return fmt.Errorf("diversity: power %v takes the total past %d units of 1e-9", m.Power, uint64(vuln.MaxPowerUnits))
	}
	p.members, p.units, p.total = append(p.members, m), append(p.units, u), total
	return nil
}

// PowerDistribution aggregates member power by configuration label — the
// paper's p over D, with weights in raw power units.
func (p *Population) PowerDistribution() Distribution {
	m := make(map[string]uint64)
	for i, mem := range p.members {
		m[mem.Label] += p.units[i]
	}
	d, err := fromUnits(m)
	if err != nil {
		// Unreachable: Add keeps the total within the ceiling.
		panic(err)
	}
	return d
}

// AbundanceCounts returns the configuration abundance: number of members
// per configuration label (Sec. IV-B).
func (p *Population) AbundanceCounts() map[string]int {
	m := make(map[string]int)
	for _, mem := range p.members {
		m[mem.Label]++
	}
	return m
}

// RelativeAbundance returns the percent-composition distribution: weight of
// each label proportional to its member count. The paper notes this is the
// Bitcoin-relevant view, where relative abundance is mining-power share
// when every member has equal power.
func (p *Population) RelativeAbundance() Distribution {
	counts := p.AbundanceCounts()
	m := make(map[string]float64, len(counts))
	for label, c := range counts {
		m[label] = float64(c)
	}
	d, err := FromWeights(m)
	if err != nil {
		panic(err) // counts are non-negative integers
	}
	return d
}

// Omega returns the common configuration abundance ω when every present
// configuration has the same member count, and (0, false) otherwise.
func (p *Population) Omega() (int, bool) {
	counts := p.AbundanceCounts()
	if len(counts) == 0 {
		return 0, false
	}
	omega := -1
	for _, c := range counts {
		if omega == -1 {
			omega = c
		} else if c != omega {
			return 0, false
		}
	}
	return omega, true
}

// IsKappaOmegaOptimal implements Definition 2: the population is
// (κ, ω)-optimal resilient iff its power distribution is κ-optimal
// (Definition 1) and every configuration has abundance exactly ω.
func (p *Population) IsKappaOmegaOptimal(kappa, omega int) bool {
	w, ok := p.Omega()
	return ok && w == omega && p.PowerDistribution().IsKappaOptimal(kappa)
}

// KappaOmega returns the (κ, ω) for which the population is optimal, or
// ok=false when it is not optimal for any pair.
func (p *Population) KappaOmega() (kappa, omega int, ok bool) {
	k, kOK := p.PowerDistribution().Kappa()
	w, wOK := p.Omega()
	if !kOK || !wOK {
		return 0, 0, false
	}
	return k, w, true
}

// MinOperatorFaultsToExceed returns the minimum number of *member-level*
// faults (malicious operators, Proposition 3's adversary) whose combined
// power strictly exceeds threshold × total power. Unlike configuration
// faults, an operator fault compromises a single member even when other
// members share its configuration — this is exactly why higher abundance ω
// improves resilience against operator adversaries.
func (p *Population) MinOperatorFaultsToExceed(threshold float64) (int, error) {
	if p.total == 0 {
		return 0, ErrNoWeight
	}
	us := slices.Clone(p.units)
	slices.Sort(us)
	return minFaults(us, p.total, threshold), nil
}

// Report bundles every diversity and resilience metric the experiments
// print for a population or distribution.
type Report struct {
	Support                 int     // configurations with non-zero power
	Members                 int     // population size (0 when built from a bare distribution)
	Entropy                 float64 // bits
	NormalizedEntropy       float64
	EffectiveConfigurations float64 // 2^H
	SimpsonIndex            float64
	MaxShare                float64 // largest single configuration's power share
	Kappa                   int     // κ when κ-optimal, else 0
	Omega                   int     // ω when uniform abundance, else 0
	MinConfigFaultsToThird  int     // faults (config level) to exceed 1/3 power
	MinConfigFaultsToHalf   int     // faults (config level) to exceed 1/2 power
	MinOperatorFaultsToHalf int     // faults (operator level) to exceed 1/2 power; 0 when unknown
}

// ReportForDistribution computes a Report for a bare power distribution
// (member-level metrics are zero). It normalizes the weights once and feeds
// the entropy family from that one slice with the float operations of the
// individual Distribution methods in their order, and the definitions and
// fault counts from one sorted copy of the units, so each field is
// bit-identical to the method it is named after.
func ReportForDistribution(d Distribution) (Report, error) {
	ps, err := d.Probabilities()
	if err != nil {
		return Report{}, err
	}
	r := Report{Support: d.Support()}
	r.Entropy = entropyBits(ps)
	r.NormalizedEntropy = normalizeEntropy(r.Entropy, r.Support)
	r.EffectiveConfigurations = math.Exp2(r.Entropy)
	r.SimpsonIndex = simpson(ps)
	if d.IsUniform() {
		r.Kappa = r.Support
	}
	us := slices.Clone(d.units)
	slices.Sort(us)
	r.MaxShare = vuln.UnitFraction(us[len(us)-1], d.total)
	r.MinConfigFaultsToThird = minFaults(us, d.total, 1.0/3.0)
	r.MinConfigFaultsToHalf = minFaults(us, d.total, 0.5)
	return r, nil
}

// ReportForPopulation computes the full Report, including member-level
// (operator adversary) resilience and abundance ω.
func ReportForPopulation(p *Population) (Report, error) {
	r, err := ReportForDistribution(p.PowerDistribution())
	if err != nil {
		return Report{}, err
	}
	r.Members = p.Size()
	if w, ok := p.Omega(); ok {
		r.Omega = w
	}
	if mf, err := p.MinOperatorFaultsToExceed(0.5); err == nil {
		r.MinOperatorFaultsToHalf = mf
	}
	return r, nil
}
