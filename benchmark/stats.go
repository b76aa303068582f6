package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks. It sorts a copy; an empty input
// yields 0 so an absent layer reads as "no samples", not NaN.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// spread is the distance between the extremes of vals as a share of
// their median — how far the rounds of one run disagree.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return (hi - lo) / math.Abs(m)
}

// medianMaps takes the per-key median over repeated probe samples.
func medianMaps(samples []map[string]float64) map[string]float64 {
	cols := map[string][]float64{}
	for _, s := range samples {
		for k, v := range s {
			cols[k] = append(cols[k], v)
		}
	}
	out := make(map[string]float64, len(cols))
	for k, vs := range cols {
		out[k] = median(vs)
	}
	return out
}
