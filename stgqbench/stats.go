package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice,
// interpolating linearly between the two nearest order statistics: the
// exact estimator on raw samples, with no bucketing. It is NaN for an
// empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// mean is the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method, extrapolating for tiny samples), so the
// spreads printed here match the ones a script computes from the same
// values. It needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
