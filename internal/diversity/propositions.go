package diversity

import "fmt"

// This file turns the paper's Propositions 1–3 into executable statements.
// Each proposition is expressed as a function that either constructs the
// scenario the proposition describes and returns the quantities it compares,
// or checks the claimed inequality on caller-supplied inputs. The property
// tests in propositions_test.go verify the claims over randomized inputs,
// and internal/experiment renders the same functions as tables.

// Proposition1Outcome captures one comparison for Proposition 1:
// "For a κ-optimal fault independence system, increasing configuration
// abundance decreases entropy, unless the relative configuration abundance
// remains identical."
type Proposition1Outcome struct {
	Kappa           int
	EntropyBefore   float64 // entropy of the κ-optimal relative abundance (= log2 κ)
	EntropyAfter    float64 // entropy after the abundance increase
	Proportional    bool    // whether the increase kept relative abundance identical
	EntropyDecrease float64 // EntropyBefore - EntropyAfter (>= 0; == 0 iff proportional)
}

// CheckProposition1 starts from a κ-optimal population with abundance ω
// (every one of κ configurations has exactly ω members of unit power) and
// adds extra members per configuration according to additions (length κ,
// each ≥ 0). It returns the entropies of the relative-abundance
// distributions before and after.
//
// The proposition holds iff: entropy never increases, and it stays equal
// exactly when the additions are proportional to the existing abundance
// (for a κ-optimal start: all additions equal).
func CheckProposition1(kappa, omega int, additions []int) (Proposition1Outcome, error) {
	if kappa <= 0 || omega <= 0 {
		return Proposition1Outcome{}, fmt.Errorf("diversity: kappa %d and omega %d must be positive", kappa, omega)
	}
	if len(additions) != kappa {
		return Proposition1Outcome{}, fmt.Errorf("diversity: need %d addition counts, got %d", kappa, len(additions))
	}
	before := make([]float64, kappa)
	after := make([]float64, kappa)
	proportional := true
	for i := 0; i < kappa; i++ {
		if additions[i] < 0 {
			return Proposition1Outcome{}, fmt.Errorf("diversity: negative addition %d at %d", additions[i], i)
		}
		before[i] = float64(omega)
		after[i] = float64(omega + additions[i])
		if additions[i] != additions[0] {
			proportional = false
		}
	}
	hBefore, err := MustFromSlice(before).Entropy()
	if err != nil {
		return Proposition1Outcome{}, err
	}
	hAfter, err := MustFromSlice(after).Entropy()
	if err != nil {
		return Proposition1Outcome{}, err
	}
	return Proposition1Outcome{
		Kappa:           kappa,
		EntropyBefore:   hBefore,
		EntropyAfter:    hAfter,
		Proportional:    proportional,
		EntropyDecrease: hBefore - hAfter,
	}, nil
}

// Proposition2Outcome captures one comparison for Proposition 2:
// "Assuming each replica has a unique configuration, having more replicas
// does not provide more resilience, unless the relative configuration
// abundances are identical."
type Proposition2Outcome struct {
	BaseReplicas       int
	AddedReplicas      int
	EntropyBefore      float64
	EntropyAfter       float64
	FaultsToHalfBefore int
	FaultsToHalfAfter  int
}

// CheckProposition2 starts from a power distribution over uniquely
// configured replicas (base, raw power units) and appends added further
// unique replicas whose total power is tailPower, spread uniformly. It
// returns entropy and min-faults-to-majority before and after.
//
// The proposition's content: when base is an oligopoly (non-uniform), the
// resilience metric (faults to exceed 1/2) does not improve no matter how
// large added grows, because the adversary still targets the giants. Only
// when the combined relative abundances become identical (uniform) does
// resilience scale with replica count. Example 1/Figure 1 instantiate this
// with the Bitcoin snapshot.
func CheckProposition2(base []float64, added int, tailPower float64) (Proposition2Outcome, error) {
	if len(base) == 0 {
		return Proposition2Outcome{}, fmt.Errorf("diversity: empty base distribution")
	}
	if added < 0 || tailPower < 0 {
		return Proposition2Outcome{}, fmt.Errorf("diversity: negative added (%d) or tailPower (%v)", added, tailPower)
	}
	dBase, err := FromSlice(base)
	if err != nil {
		return Proposition2Outcome{}, err
	}
	out := Proposition2Outcome{BaseReplicas: len(base), AddedReplicas: added}
	if out.EntropyBefore, err = dBase.Entropy(); err != nil {
		return Proposition2Outcome{}, err
	}
	if out.FaultsToHalfBefore, err = dBase.MinFaultsToExceed(0.5); err != nil {
		return Proposition2Outcome{}, err
	}
	combined := append(append([]float64(nil), base...), make([]float64, added)...)
	for i := 0; i < added; i++ {
		combined[len(base)+i] = tailPower / float64(added)
	}
	dAfter, err := FromSlice(combined)
	if err != nil {
		return Proposition2Outcome{}, err
	}
	if out.EntropyAfter, err = dAfter.Entropy(); err != nil {
		return Proposition2Outcome{}, err
	}
	if out.FaultsToHalfAfter, err = dAfter.MinFaultsToExceed(0.5); err != nil {
		return Proposition2Outcome{}, err
	}
	return out, nil
}

// Proposition3Outcome captures one comparison for Proposition 3:
// "Higher configuration abundance improves the resilience of permissionless
// blockchains" — against operator-level adversaries — at a proportional
// message-overhead cost.
type Proposition3Outcome struct {
	Kappa int
	Omega int
	// OperatorFaultsToHalf is the number of malicious operators needed to
	// exceed half the power; grows linearly in ω for κ-optimal systems.
	OperatorFaultsToHalf int
	// ConfigFaultsToHalf is the number of vulnerability-level faults needed;
	// independent of ω (the "doesn't help for vulnerability adversaries"
	// caveat in the paper's discussion).
	ConfigFaultsToHalf int
	// Replicas = κ·ω, proportional to the per-round message overhead of a
	// quorum protocol (the trade-off the paper closes Sec. IV-B with).
	Replicas int
}

// CheckProposition3 builds the (κ, ω)-optimal population of Definition 2
// (κ configurations, ω unit-power members each) and evaluates both fault
// models against the 1/2 threshold.
func CheckProposition3(kappa, omega int) (Proposition3Outcome, error) {
	if kappa <= 0 || omega <= 0 {
		return Proposition3Outcome{}, fmt.Errorf("diversity: kappa %d and omega %d must be positive", kappa, omega)
	}
	labels := make([]string, kappa)
	for i := range labels {
		labels[i] = fmt.Sprintf("cfg-%04d", i)
	}
	pop, err := UniformPopulation(kappa*omega, labels)
	if err != nil {
		return Proposition3Outcome{}, err
	}
	out := Proposition3Outcome{Kappa: kappa, Omega: omega, Replicas: kappa * omega}
	if out.OperatorFaultsToHalf, err = pop.MinOperatorFaultsToExceed(0.5); err != nil {
		return Proposition3Outcome{}, err
	}
	if out.ConfigFaultsToHalf, err = pop.PowerDistribution().MinFaultsToExceed(0.5); err != nil {
		return Proposition3Outcome{}, err
	}
	return out, nil
}
