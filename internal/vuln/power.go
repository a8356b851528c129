package vuln

import (
	"fmt"
	"math"
	"math/bits"
)

// Voting power (Sec. II-A) has one arithmetic, shared by the registry, the
// injectors, the adversary planner and the BFT runtime: a power is an
// integer count of units of 1e-9, converted once from the float a caller
// supplies, then only added, compared and, for display, divided once.
// Integer sums are exact in any order, so a verdict at the Sec. II-C
// boundary cannot depend on how a population happens to be listed.

// PowerUnit is how many integer units one unit of power is: a power with
// at most nine decimals converts exactly.
const PowerUnit = 1e9

// MaxPowerUnits is the ceiling on the summed units of one population
// (≈ 6.1e9 power): 3·total, the largest product a quorum test forms, fits
// in a uint64.
const MaxPowerUnits = math.MaxUint64 / 3

// PowerUnits converts a power w to math.Round(w·1e9) units: the nearest
// billionth, halves away from zero. A negative or non-finite power, a
// positive one that rounds to 0 units and one past MaxPowerUnits are
// errors.
func PowerUnits(w float64) (uint64, error) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("invalid power %v", w)
	}
	u := math.Round(w * PowerUnit)
	if u == 0 && w > 0 {
		return 0, fmt.Errorf("invalid power %v: rounds to 0 units of 1e-9", w)
	}
	if u > MaxPowerUnits {
		return 0, fmt.Errorf("invalid power %v: past the ceiling of %d units of 1e-9", w, uint64(MaxPowerUnits))
	}
	return uint64(u), nil
}

// WeighUnits applies a tier's weighting multiplier m (finite, >= 0) to u
// units: math.Round(u·m), and u itself when m is 1. A product past
// MaxPowerUnits is an error.
func WeighUnits(u uint64, m float64) (uint64, error) {
	if m == 1 {
		return u, nil
	}
	w := math.Round(float64(u) * m)
	if w > MaxPowerUnits {
		return 0, fmt.Errorf("weighted power %v·%d units of 1e-9 is past the ceiling", m, u)
	}
	return uint64(w), nil
}

// AddUnits returns total + n·u, and false when that would pass
// MaxPowerUnits.
func AddUnits(total uint64, n int, u uint64) (uint64, bool) {
	hi, lo := bits.Mul64(uint64(n), u)
	if hi != 0 || lo > MaxPowerUnits-total {
		return total, false
	}
	return total + lo, true
}

// ReplicaUnits appends each replica's power, converted with PowerUnits, to
// dst and returns the result and its sum. It refuses what PowerUnits
// refuses, and a sum past MaxPowerUnits.
func ReplicaUnits(dst []uint64, replicas []Replica) ([]uint64, uint64, error) {
	var total uint64
	for _, r := range replicas {
		u, err := PowerUnits(r.Power)
		if err != nil {
			return dst, 0, fmt.Errorf("vuln: replica %s has %w", r.Name, err)
		}
		var ok bool
		if total, ok = AddUnits(total, 1, u); !ok {
			return dst, 0, fmt.Errorf("vuln: replica %s takes the summed power past %d units of 1e-9", r.Name, uint64(MaxPowerUnits))
		}
		dst = append(dst, u)
	}
	return dst, total, nil
}

// UnitsPower converts units back to power: one correctly rounded
// division, so a power with at most nine decimals (below 2^53 units) comes
// back as the float64 it was converted from.
func UnitsPower(u uint64) float64 { return float64(u) / PowerUnit }

// UnitFraction is num/den as one division of exact integers, 0 when den
// is 0. Below 2^53 units both convert to float64 exactly, so the quotient
// is correctly rounded and the same wherever it is computed.
func UnitFraction(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
