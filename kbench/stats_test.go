package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},  // 10 beyond
		{999, 0.99, 990, false},  // 9 beyond
		{1080, 0.99, 1070, true}, // serve-mix's scenario jobs per step
		{120, 0.90, 108, true},   // and its verify jobs
		{100, 0.99, 99, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
	} {
		v, ok := percentile(seq(tc.n), tc.q)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestTailNotesSampleCount(t *testing.T) {
	r := newResult()
	r.tail("p99", seq(1000), 0.99)
	r.tail("short", seq(999), 0.99)
	if got := r.notes[0]; got.N != 1000 || got.Value != 990 || got.Text != "" {
		t.Errorf("supported tail noted as %+v", got)
	}
	if got := r.notes[1]; got.N != 999 || got.Value != 0 || got.Text == "" {
		t.Errorf("unsupported tail noted as %+v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) on the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
