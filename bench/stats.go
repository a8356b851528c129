package main

import (
	"sort"

	"repro/internal/metrics"
)

// quantile of unsorted values; 0 when there are none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metrics.Quantile(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pairedUS is the median over operations of outer − inner: what the layer
// between two rungs costs. Pairing each op with itself and taking the
// median keeps a stall in either replay out of the difference.
func pairedUS(outer, inner []float64) float64 {
	if len(outer) != len(inner) {
		panic("bench: rungs replayed different op lists")
	}
	diff := make([]float64, len(outer))
	for i := range diff {
		diff[i] = outer[i] - inner[i]
	}
	return median(diff)
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
