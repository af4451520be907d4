package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, and 0 when b is 0: a layer that did no work has no ratio.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
