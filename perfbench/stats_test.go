package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestTailPercentileSampleCountRule(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// p99 needs ten samples beyond it: 1000 samples, not 999.
	if _, ok := tailPercentile(sample(999), 990); ok {
		t.Error("p99 reported from 999 samples")
	}
	got, ok := tailPercentile(sample(1000), 990)
	if !ok {
		t.Fatal("p99 refused with 1000 samples")
	}
	if want := quantile(sample(1000), 0.99); got != want {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	// p90 needs 100 samples.
	if _, ok := tailPercentile(sample(99), 900); ok {
		t.Error("p90 reported from 99 samples")
	}
	if _, ok := tailPercentile(sample(100), 900); !ok {
		t.Error("p90 refused with 100 samples")
	}
	for _, c := range []struct{ permille, want int }{{990, 1000}, {900, 100}, {500, 20}, {999, 10000}} {
		if got := samplesNeeded(c.permille); got != c.want {
			t.Errorf("samplesNeeded(%d) = %d, want %d", c.permille, got, c.want)
		}
	}
}
