package main

import (
	"math"
	"slices"
)

// tailLadder is the set of percentiles a latency tail is reported at,
// lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile is the highest percentile on the ladder that has at
// least 10 of n samples beyond it, or 0 when even the median has fewer
// (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of samples (p in
// (0, 100]). A failed operation enters samples as +Inf, so it is
// slower than any limit and moves every percentile it reaches.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle value of samples (the mean of the middle two
// for an even count).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartiles of samples
// by the method of Python's statistics.quantiles(data, n=4) (the
// default "exclusive" method), so the spread printed here is the one
// a Python reader computes from the same values. It needs at least
// two samples.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	s := slices.Clone(samples)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// finite maps +Inf (a failed operation's latency) to the largest
// float64 so it survives JSON encoding and still compares as slower
// than anything measured.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
