package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); NaN for an empty slice. The input is not modified.
func median(values []float64) float64 {
	return quantile(values, 0.5)
}

// quantile returns the exact q-quantile of the raw samples by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// relIQR is the distance between the first and third quartile as a share
// of the median, computed as Python's statistics.quantiles(v, n=4) does
// (exclusive method), which is how the driver judges run-to-run spread.
func relIQR(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	cut := func(i int) float64 {
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return sorted[j-1] + (sorted[j]-sorted[j-1])*delta
	}
	med := quantileSorted(sorted, 0.5)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}

// durationQuantilesUs returns the requested quantiles of the raw latency
// samples in microseconds.
func durationQuantilesUs(samples []time.Duration, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	us := make([]float64, len(samples))
	for i, d := range samples {
		us[i] = float64(d) / 1e3
	}
	sort.Float64s(us)
	for i, q := range qs {
		out[i] = math.NaN()
		if len(us) > 0 {
			out[i] = quantileSorted(us, q)
		}
	}
	return out
}
