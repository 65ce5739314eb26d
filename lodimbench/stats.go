package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; fewer and the percentile is a guess at the maximum.
const minBeyond = 10

// rank returns the nearest-rank index of the q-quantile in n sorted
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// percentile is the nearest-rank q-quantile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)]
}

// tailPercentile is percentile for a tail quantile: it fails unless at
// least minBeyond samples lie beyond the quantile's rank.
func tailPercentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if beyond := n - 1 - rank(n, q); n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, max(n-1-rank(n, q), 0), minBeyond)
	}
	return sorted[rank(n, q)], nil
}

// openWindow is the open loop's p99 window: the fewest requests whose
// p99 has minBeyond samples beyond it.
const openWindow = 1000

// openP99 is the open loop's p99 from latencies in send order. With at
// least 5 windows of openWindow requests it is the median of the
// windows' p99s, so a burst of host stalls in one stretch of the run
// moves it little; with fewer it is the p99 of all samples, which
// keeps a heavy tail's few samples together.
func openP99(lats []float64) (float64, error) {
	if len(lats) < 5*openWindow {
		return tailPercentile(sorted(lats), 0.99)
	}
	var wins []float64
	for lo := 0; lo+openWindow <= len(lats); lo += openWindow {
		p, err := tailPercentile(sorted(lats[lo:lo+openWindow]), 0.99)
		if err != nil {
			return 0, err
		}
		wins = append(wins, p)
	}
	return percentile(sorted(wins), 0.5), nil
}

// minSamples is the smallest sample count whose q-quantile passes
// tailPercentile.
func minSamples(q float64) int {
	n := 1
	for n-1-rank(n, q) < minBeyond {
		n++
	}
	return n
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default exclusive method), which is how the spread of repeated runs
// is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
