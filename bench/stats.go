package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile of xs (0 <= p <= 100), linearly
// interpolated between the closest ranks. xs is sorted in place; an
// empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// median is the 50th percentile of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so that spreads printed here match the
// ones an outside check computes from the same values. xs is sorted in
// place; fewer than two values give that value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	sort.Float64s(xs)
	const n = 4
	ld := len(xs)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// geomean returns the geometric mean of xs; non-positive values have no
// logarithm and make the result 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// tailLevels are the percentiles a timing's tail may be reported at.
var tailLevels = []float64{99.9, 99, 95, 90, 50}

// tailLevel returns the highest percentile in tailLevels that leaves at
// least ten of n samples beyond it, or 0 when n is too small for any:
// a percentile with fewer samples past it is one outlier, not a tail.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
