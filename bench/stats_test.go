package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		want  float64 // value
		wantQ float64 // percentile actually supported
	}{
		// 1000 samples: rank 990 leaves exactly 10 beyond — supported.
		{1000, 0.99, 990, 0.99},
		// 500 samples: p99 would leave 5 beyond; step down to rank 490.
		{500, 0.99, 490, 0.98},
		// p90 of 100 leaves exactly 10 beyond.
		{100, 0.90, 90, 0.90},
		// p90 of 50 steps down to rank 40 (p80).
		{50, 0.90, 40, 0.80},
		// 10 samples support no tail percentile: fall back to the median.
		{10, 0.99, 5, 0.5},
		{1, 0.99, 1, 0.5},
	} {
		got := percentile(seq(tc.n), tc.q)
		if got.Value != tc.want || math.Abs(got.Q-tc.wantQ) > 1e-12 || got.N != tc.n || got.Asked != tc.q {
			t.Errorf("percentile(n=%d, q=%v) = %+v, want value %v at q %v", tc.n, tc.q, got, tc.want, tc.wantQ)
		}
		if got.Q > 0.5 && tc.n-int(math.Round(got.Q*float64(tc.n))) < minBeyond {
			t.Errorf("n=%d q=%v: fewer than %d samples beyond the reported rank", tc.n, tc.q, minBeyond)
		}
	}
	if got := percentile(nil, 0.99); got != (tail{}) {
		t.Errorf("percentile(nil) = %+v, want zero", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median(seq(5)); got != 3 {
		t.Errorf("median(1..5) = %v, want 3", got)
	}
	if got := median(seq(4)); got != 2 {
		t.Errorf("nearest-rank median(1..4) = %v, want 2", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) on the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(4), [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7, 1, 3}, [3]float64{1, 3, 7}},
		// Two samples: Python extrapolates past the ends.
		{[]float64{0.9, 1.1}, [3]float64{0.85, 1.0, 1.15}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}
