package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2, 7, 7, 0.5}, 1.25, 7.0},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	// (8.25 - 2.75) / 5.5
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestTenSamplesBeyond checks the rule for the highest percentile a timing
// may be reported at: at least ten samples lie beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.50, 20}, {0.95, 200}, {0.99, 1000}} {
		n := minSamplesFor(c.p)
		if n != c.want {
			t.Errorf("minSamplesFor(%v) = %d, want %d", c.p, n, c.want)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := percentile(xs, c.p)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("p%v of %d samples has %d beyond it", 100*c.p, n, beyond)
		}
	}
}

// TestRefusedCountsAsOverLimit: a refused or failed request enters the
// samples as +Inf, so enough of them push the percentile past any limit.
func TestRefusedCountsAsOverLimit(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	if got := percentile(xs, 0.99); got != 1 {
		t.Fatalf("p99 of all-1ms = %v", got)
	}
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if got := percentile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 11 of 1000 refused = %v, want +Inf", got)
	}
	if got := percentile(xs, 0.50); got != 1 {
		t.Errorf("p50 with 11 of 1000 refused = %v, want 1", got)
	}
}

func TestFailFracNeverZero(t *testing.T) {
	if got := failFrac(0, 998); got != 1.0/1000 {
		t.Errorf("failFrac(0, 998) = %v", got)
	}
	if failFrac(3, 998) <= failFrac(0, 998) {
		t.Error("more failures must read worse")
	}
}

func TestWithinBound(t *testing.T) {
	for _, c := range []struct {
		old, new, bound float64
		want            bool
	}{
		{10, 11, 0.1, true},
		{10, 11.01, 0.1, false},
		{10, 5, 0.1, true},
	} {
		if got := withinBound(c.old, c.new, c.bound); got != c.want {
			t.Errorf("withinBound(%v, %v, %v) = %v, want %v", c.old, c.new, c.bound, got, c.want)
		}
	}
}
