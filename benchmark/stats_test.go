package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30} // deliberately unsorted
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {95, 48}, {62.5, 35},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	// A metric's value is the median over its rounds: one slow round
	// (a cold first round, say) must not move it.
	if got := median([]float64{25.3, 61.0, 25.1}); got != 25.3 {
		t.Errorf("median of three rounds = %v, want 25.3", got)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{100, 110, 90}); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if got := spread([]float64{12671, 12671, 12671}); got != 0 {
		t.Errorf("spread of identical rounds = %v, want 0", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one round = %v, want 0", got)
	}
}

func TestMedianMaps(t *testing.T) {
	got := medianMaps([]map[string]float64{{"a": 1, "b": 10}, {"a": 3, "b": 30}, {"a": 2, "b": 20}})
	if got["a"] != 2 || got["b"] != 20 || len(got) != 2 {
		t.Errorf("medianMaps = %v", got)
	}
}
