package main

import (
	"math"
	"testing"
)

// TestHistQuantile checks that histogram quantiles land within a bucket's
// width (under 0.8%) of the exact nearest-rank quantile.
func TestHistQuantile(t *testing.T) {
	var h hist
	var exact []int64
	for v := uint32(1); v <= 200000; v += 7 {
		h.add(v)
		exact = append(exact, int64(v))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		got, want := h.quantile(q), quantile(exact, q)
		if math.Abs(got-want) > want*0.008+1 {
			t.Errorf("quantile(%v) = %.1f, want %.1f within 0.8%%", q, got, want)
		}
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
