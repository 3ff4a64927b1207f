package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail value: the
// tail of a timing is the highest percentile that still has this many
// samples beyond it, so one stray sample can never be the tail.
const minBeyond = 10

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest nearest-rank percentile of xs that has at least
// minBeyond samples above it, with that percentile. With fewer than
// minBeyond+1 samples no percentile qualifies; tail then returns the
// maximum and reports percentile 100, and the caller's report says so.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n <= minBeyond {
		return s[n-1], 100
	}
	rank := n - minBeyond // 1-based rank with exactly minBeyond samples after it
	return s[rank-1], 100 * float64(rank) / float64(n)
}

// tailLabel names a tail percentile for the printed report.
func tailLabel(pct float64, n int) string {
	if n <= minBeyond {
		return fmt.Sprintf("max of %d", n)
	}
	return fmt.Sprintf("p%.2f of %d", pct, n)
}

// failFrac is failed operations over attempted operations. A run that
// attempted nothing has failed entirely.
func failFrac(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
