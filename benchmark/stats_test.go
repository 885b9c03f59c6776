package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {1, 100}, {0.01, 10}, {0.1, 10}, {0.11, 20},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// 1000 samples leave exactly 10 beyond the p99.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{5, 1, 4}); got != 4 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{5, 1, 4, 2}); got != 3 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
	if got, want := spreadShare([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}), 27.5/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadShare = %v, want %v", got, want)
	}
	if got := spreadShare([]float64{7}); got != 0 {
		t.Errorf("spread of one run = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v", got)
	}
}

func TestQuietQuartile(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	if got := quietQuartile(v, "lower"); got != 3 {
		t.Errorf("lower quartile of five = %v, want 3", got)
	}
	if got := quietQuartile(v, "higher"); got != 7 {
		t.Errorf("upper quartile of five = %v, want 7", got)
	}
	// Fifteen processes: rank 3.5 from the better side, between two values.
	fifteen := make([]float64, 15)
	for i := range fifteen {
		fifteen[i] = float64(10 * (15 - i)) // 150 .. 10
	}
	if got := quietQuartile(fifteen, "lower"); got != 45 {
		t.Errorf("lower quartile of 10..150 = %v, want 45", got)
	}
	if got := quietQuartile(fifteen, "higher"); got != 115 {
		t.Errorf("upper quartile of 10..150 = %v, want 115", got)
	}
	// One process slowed tenfold by the host moves nothing.
	fifteen[0] = 1500
	if got := quietQuartile(fifteen, "lower"); got != 45 {
		t.Errorf("with an outlier = %v, want 45", got)
	}
	if got := quietQuartile([]float64{4}, "lower"); got != 4 {
		t.Errorf("of one = %v", got)
	}
	if got := quietQuartile(nil, "higher"); got != 0 {
		t.Errorf("of none = %v", got)
	}
}
