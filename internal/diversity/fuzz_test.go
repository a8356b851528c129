package diversity

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// FuzzExactFaultCounts: on up to 16 labels of at most 2^40 units each,
// every fault count equals its math/big.Rat reference at the thresholds
// 1/3, 1/2 and 2/3, with the power classes handed over in a shuffled
// order, and κ equals an integer scan. Each label takes four bytes: a
// shift, a 16-bit value (units = value << shift, so ties and exact
// thresholds are common) and its class's member count.
func FuzzExactFaultCounts(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0}, uint8(0), int64(1))             // thirds
	f.Add([]byte{0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0}, uint8(0), int64(2)) // {0.2, 0.2, 0.2, 0.3}
	f.Add([]byte{0, 3, 0, 2, 0, 4, 0, 0, 0, 7, 0, 0, 0, 6, 0, 2}, uint8(1), int64(3)) // exact-half operator fleet
	f.Add([]byte{24, 255, 255, 3, 24, 255, 255, 3, 0, 0, 0, 1}, uint8(2), int64(4))   // 2^40-scale units and a zero
	f.Fuzz(func(t *testing.T, data []byte, pick uint8, seed int64) {
		fractions := [3][2]int64{{1, 3}, {1, 2}, {2, 3}}
		num, den := fractions[pick%3][0], fractions[pick%3][1]
		threshold := float64(num) / float64(den)
		var labels []string
		var units, members []uint64
		var classes []PowerClass
		for i := 0; i < 16 && len(data) >= 4; i++ {
			u := (uint64(data[1]) | uint64(data[2])<<8) << (data[0] % 25)
			count := 1 + int(data[3]%4)
			data = data[4:]
			labels, units = append(labels, fmt.Sprintf("%02d", i)), append(units, u)
			classes = append(classes, PowerClass{Units: u, Count: count})
			for range count {
				members = append(members, u)
			}
		}
		d, err := FromSorted(labels, units)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		got, err := d.MinFaultsToExceed(threshold)
		op, opErr := MinOperatorFaultsForClasses(classes, threshold)
		r, rErr := ReportForDistribution(d)
		if d.Support() == 0 {
			if !errors.Is(err, ErrNoWeight) || !errors.Is(opErr, ErrNoWeight) || !errors.Is(rErr, ErrNoWeight) {
				t.Fatalf("%v: errors %v, %v, %v; want ErrNoWeight", units, err, opErr, rErr)
			}
			return
		}
		if err != nil || opErr != nil || rErr != nil {
			t.Fatalf("%v: errors %v, %v, %v", units, err, opErr, rErr)
		}
		if want := exactMinFaults(units, num, den); got != want {
			t.Fatalf("%v at %d/%d: MinFaultsToExceed %d, exact %d", units, num, den, got, want)
		}
		if want := exactMinFaults(members, num, den); op != want {
			t.Fatalf("classes %v at %d/%d: MinOperatorFaultsForClasses %d, exact %d", classes, num, den, op, want)
		}
		third, half := exactMinFaults(units, 1, 3), exactMinFaults(units, 1, 2)
		if r.MinConfigFaultsToThird != third || r.MinConfigFaultsToHalf != half || (r.MaxShare > 1.0/3.0) != (third == 1) {
			t.Fatalf("%v: report faults to 1/3 %d, 1/2 %d, max share %v; exact %d, %d", units, r.MinConfigFaultsToThird, r.MinConfigFaultsToHalf, r.MaxShare, third, half)
		}
		kappa, top := d.Support(), slices.Max(units)
		for _, u := range units {
			if u != 0 && u != top {
				kappa = 0
			}
		}
		if k, ok := d.Kappa(); k != kappa || ok != (kappa > 0) || r.Kappa != kappa {
			t.Fatalf("%v: Kappa %d, %t, report %d; want %d", units, k, ok, r.Kappa, kappa)
		}
	})
}
