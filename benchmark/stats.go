package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted:
// the smallest sample with at least p of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median returns the middle of v (mean of the two middle values when even).
// It sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quietQuartile is how a run reduces the values its processes gave for one
// metric: the lower quartile when lower is better, the upper quartile when
// higher is better, interpolated between the closest ranks. The shared host
// only ever makes the program slower, for seconds at a time, so the better
// side of the processes is the program and the worse side is the host; the
// quartile, not the best, so that one lucky process decides nothing.
func quietQuartile(v []float64, better string) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	pos := 0.25 * float64(len(s)-1)
	if better == "higher" {
		pos = 0.75 * float64(len(s)-1)
	}
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which the pipeline uses for run-to-run spread.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance of v as a share of its median;
// 0 when there are too few values to have one.
func spreadShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// micros converts nanosecond samples to sorted microseconds.
func micros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}
