package main

import (
	"math"
	"sort"
	"time"
)

// msSince is the time elapsed since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics. It sorts a copy; xs is left untouched. An empty
// sample yields 0.
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

// median is quantile(xs, 0.5): the estimator every wall-clock metric uses
// across rounds.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) (method "exclusive") computes them, so the
// -aa table reads the same spread the driver will.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		v := median(xs)
		return v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the noise
// figure the bounds are sized from.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
