package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are what Python's statistics.quantiles(xs, n=4)
// and statistics.median return, since the acceptance spread uses them.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
		ok  bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9 beyond the median
		{20, 50, true},
		{99, 50, true}, // 9 beyond p90
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		pct, ok := tailPercentile(c.n)
		if pct != c.pct || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v %v, want %v %v", c.n, pct, ok, c.pct, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailLabel(xs); got != "p90=90.9" {
		t.Errorf("tailLabel = %q, want p90=90.9", got)
	}
	if got := tailLabel(xs[:5]); got != "" {
		t.Errorf("tailLabel of 5 samples = %q, want empty", got)
	}
}
