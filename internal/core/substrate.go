package core

import (
	"fmt"
	"math"

	"repro/internal/vuln"
)

// Substrate identifies a consensus family by value: its name, the
// Byzantine power fraction f it tolerates, and the family's safety rule
// applied to an injected fault picture. Callers select a family (BFT,
// Nakamoto, committee) instead of wiring threshold constants; each family
// is declared by its own package (internal/bft, internal/nakamoto,
// internal/committee), next to or apart from the code that runs it —
// internal/bft holds only the declaration, internal/bftlive the protocol.
type Substrate interface {
	// Name identifies the consensus family (e.g. "bft", "nakamoto").
	Name() string
	// Tolerance is the tolerated Byzantine power fraction f in (0,1).
	Tolerance() float64
	// Assess applies the family's safety condition (Sec. II-C:
	// Tolerance >= Σ f_t^i) to the fault picture at one instant.
	Assess(inj vuln.Injection) bool
}

// Family is the generic value-type Substrate: a named tolerance applying
// the paper's Sec. II-C condition verbatim. Backends embed or return it;
// callers with a bespoke threshold can construct one directly.
type Family struct {
	FamilyName     string
	FaultTolerance float64
}

// Name implements Substrate.
func (f Family) Name() string { return f.FamilyName }

// Tolerance implements Substrate.
func (f Family) Tolerance() float64 { return f.FaultTolerance }

// Assess implements Substrate: safe iff Σ f_t^i ≤ Tolerance.
func (f Family) Assess(inj vuln.Injection) bool { return inj.Safe(f.FaultTolerance) }

// validateSubstrate rejects nil substrates and tolerances outside (0,1).
func validateSubstrate(s Substrate) error {
	if s == nil {
		return fmt.Errorf("core: nil substrate")
	}
	tol := s.Tolerance()
	if math.IsNaN(tol) || tol <= 0 || tol >= 1 {
		return fmt.Errorf("core: substrate %q tolerance %v out of (0,1)", s.Name(), tol)
	}
	return nil
}
