package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linear-interpolation quantile of an already sorted
// sample (q in [0, 1]); NaN on an empty sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median of an unsorted sample.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tail is a latency summary: the median and, when the sample is large
// enough, p90. OK90 is false when fewer than ten samples lie beyond p90
// (fewer than 100 in all), in which case P90 is not a tail and is left NaN.
type tail struct {
	N       int
	P50     float64
	P90     float64
	OK90    bool
	Count90 int // samples strictly beyond p90
}

// summarize computes the median and p90 of xs, reporting p90 only when at
// least ten samples lie beyond it.
func summarize(xs []float64) tail {
	s := sorted(xs)
	t := tail{N: len(s), P50: quantile(s, 0.5), P90: math.NaN()}
	if len(s) == 0 {
		return t
	}
	p90 := quantile(s, 0.9)
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > p90 })
	t.Count90 = beyond
	if beyond >= 10 {
		t.P90, t.OK90 = p90, true
	}
	return t
}

// quartiles are the first and third quartiles by the "exclusive" method
// (Python's statistics.quantiles(data, n=4) default), so a spread computed
// here matches the one a Python checker computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	out := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// toMs converts a duration to float milliseconds.
func toMs(d time.Duration) float64 { return float64(d) / 1e6 }

// mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// deciles renders the 10th..90th percentiles of xs for the human report.
func deciles(xs []float64) string {
	s := sorted(xs)
	out := make([]string, 0, 9)
	for q := 1; q <= 9; q++ {
		out = append(out, strconv.FormatFloat(quantile(s, float64(q)/10), 'f', 3, 64))
	}
	return strings.Join(out, " ")
}
