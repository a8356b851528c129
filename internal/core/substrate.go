package core

import (
	"fmt"

	"repro/internal/vuln"
)

// Substrate is a consensus family as the paper has it (Sec. II-A): a name
// and the resilience f — the Byzantine power fraction the family tolerates,
// "derived from the total number of replicas according to the quorum
// theory". Every family is one of the values or constructors below; the
// protocols themselves run elsewhere (internal/bftlive, internal/nakamoto,
// internal/committee) and do not know this package.
type Substrate struct {
	Name      string
	Tolerance float64 // f, in (0,1)
}

// Safe is the Sec. II-C condition, f ≥ Σ f_t^i, on the fault picture at
// one instant: the deduplicated compromised fraction may reach f, not
// pass it.
func (s Substrate) Safe(inj vuln.Injection) bool { return inj.Safe(s.Tolerance) }

var (
	// BFT is the quorum-BFT family: a three-phase commit whose quorums are
	// strictly more than 2/3 of the power is safe while Byzantine power
	// stays at or below f = 1/3.
	BFT = Substrate{Name: "bft", Tolerance: BFTThreshold}
	// Nakamoto is the longest-chain family: above f = 1/2 the attacker
	// out-mines the network and a double spend is certain (see
	// nakamoto.DoubleSpendProbability).
	Nakamoto = Substrate{Name: "nakamoto", Tolerance: NakamotoThreshold}
)

// Committee is a quorum protocol over a fixed number of seats (>= 4),
// tolerating floor((seats-1)/3) Byzantine seats: unlike the open BFT
// family, f depends on the committee's size.
func Committee(seats int) (Substrate, error) {
	if seats < 4 {
		return Substrate{}, fmt.Errorf("core: committee substrate needs >= 4 seats, got %d", seats)
	}
	return Substrate{
		Name:      fmt.Sprintf("committee(%d)", seats),
		Tolerance: float64((seats-1)/3) / float64(seats),
	}, nil
}

// Threshold is a family known only by its tolerance f; WithSubstrate
// rejects an f outside (0,1).
func Threshold(f float64) Substrate {
	return Substrate{Name: fmt.Sprintf("custom(f=%.4g)", f), Tolerance: f}
}
