package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(data, n=4) (its default "exclusive"
// method), so spreads computed here match spreads computed with it.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentile is the nearest-rank q-th percentile: the ceil(q·n/100)-th
// smallest sample.
func percentile(xs []float64, q float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q * float64(len(s)) / 100))
	return s[max(1, min(k, len(s)))-1]
}

// pairWins counts the pairs in which the change reads better than the
// parent; ties count for neither side.
func pairWins(parent, change []float64, higherBetter bool) int {
	wins := 0
	for i := range parent {
		if (higherBetter && change[i] > parent[i]) || (!higherBetter && change[i] < parent[i]) {
			wins++
		}
	}
	return wins
}

// isGain applies the rule for claiming a gain: the change wins at least
// nine tenths of the pairs, and the medians differ, in the better
// direction, by more than the parent's interquartile range.
func isGain(parent, change []float64, higherBetter bool) bool {
	if len(parent) == 0 || pairWins(parent, change, higherBetter)*10 < 9*len(parent) {
		return false
	}
	gap := median(change) - median(parent)
	if !higherBetter {
		gap = -gap
	}
	q1, q3 := quartiles(parent)
	return gap > q3-q1
}
