package main

import (
	"math"
	"testing"
	"time"
)

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 10000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 10000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.03 {
			t.Errorf("quantile(%v) = %v µs, want %v ± 3%%", q, got, want)
		}
	}
	var one hist
	one.record(1234567 * time.Nanosecond)
	if got := one.quantile(0.99); got != 1234.567 {
		t.Errorf("single sample: got %v µs, want 1234.567", got)
	}
}
