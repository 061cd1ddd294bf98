package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie beyond it. A tail the sample cannot
// support is not reported.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(q * float64(len(s))))
	k = min(max(k, 1), len(s))
	return s[k-1], len(s)-k >= minBeyond
}

// median returns the middle of xs (the mean of the two middle samples
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into quarters,
// computed as Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads read the same in either tool.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
