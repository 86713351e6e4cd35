package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the sample-support rule for tail percentiles: a percentile
// is reported only when at least this many samples lie beyond it.
const minBeyond = 10

// tail is one reported percentile: the value, the percentile asked for,
// the percentile the sample supports (lower than asked when the sample is
// short), and the sample count it came from.
type tail struct {
	Value float64 `json:"value"`
	Asked float64 `json:"asked"`
	Q     float64 `json:"q"`
	N     int     `json:"n"`
}

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples under the minBeyond rule: when fewer than minBeyond samples lie
// beyond rank ceil(q*n), the rank steps down to the highest one that has
// them, and the returned Q says which percentile that is. A sample too
// short to support any percentile yields its median with Q 0.5.
func percentile(sorted []float64, q float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{}
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(rank, 1)
	if n-rank < minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		return tail{Value: sorted[(n-1)/2], Asked: q, Q: 0.5, N: n}
	}
	used := q
	if float64(rank) < q*float64(n) {
		used = float64(rank) / float64(n)
	}
	return tail{Value: sorted[rank-1], Asked: q, Q: used, N: n}
}

// median returns the nearest-rank median of sorted samples (0 for none);
// the median is never subject to the minBeyond rule.
func median(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)/2]
}

// durationsMs converts durations to sorted milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same method as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so the spread printed by -runs is the one
// an outside check computes from the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// mean returns the arithmetic mean (0 for no samples).
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

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
