package main

import (
	"math"
	"sort"
	"time"
)

// The tail estimator splits a run into tailWindows consecutive
// sub-windows when each gets at least minTailWindow samples: with 200
// samples a p90 still has twenty beyond it.
const (
	tailWindows   = 5
	minTailWindow = 200
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice; zero for an empty one.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank p50 of an unsorted sample.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail estimates the q-quantile of samples given in arrival order. A
// run long enough to split is cut into tailWindows consecutive
// sub-windows and the estimate is the median of their own quantiles, so
// a machine stall spoils the sub-windows it falls in and not the
// metric; a shorter run gives the quantile of all its samples.
func tail(inOrder []float64, q float64) float64 {
	n := len(inOrder)
	if n < tailWindows*minTailWindow {
		return percentile(sortedCopy(inOrder), q)
	}
	w := n / tailWindows
	parts := make([]float64, tailWindows)
	for i := range parts {
		parts[i] = percentile(sortedCopy(inOrder[i*w:(i+1)*w]), q)
	}
	return median(parts)
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method) — the rule
// the acceptance check applies to repeated runs.
func spread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	quart := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := quart(2)
	if med == 0 {
		return 0
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

// quartileMedian is the median the acceptance check compares: the
// second of the three cut points above.
func quartileMedian(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
