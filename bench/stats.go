package main

import (
	"fmt"
	"math"
	"sort"
)

// Summary statistics are computed here rather than by an external
// tool, so reading the ledger needs nothing beyond this package.
//
// Quantiles interpolate linearly between the two closest ranks of the
// sorted sample. A tail percentile is reported only when at least
// minBeyond samples lie beyond it; with fewer, the value would be set
// by one or two outliers and would not repeat from run to run.

// minBeyond is the number of samples that must lie beyond a reported
// percentile.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted data.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// Median returns the middle value (NaN for no samples).
func Median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// Quartiles returns the first and third quartiles.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	return quantile(s, 0.25), quantile(s, 0.75)
}

// MAD returns the median absolute deviation from the median.
func MAD(xs []float64) float64 {
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// Percentile returns the p-th percentile (0 < p < 100) and whether the
// sample supports it: at least minBeyond samples must lie above it.
func Percentile(xs []float64, p float64) (float64, bool) {
	// (100-p)/100, not 1-p/100: the latter rounds 100 samples × 10%
	// to just under ten.
	if len(xs) == 0 || float64(len(xs))*(100-p)/100 < minBeyond {
		return 0, false
	}
	return quantile(sortedCopy(xs), p/100), true
}

// Describe summarizes a sample for the run log: its count, median,
// quartiles and median absolute deviation.
func Describe(xs []float64) string {
	q1, q3 := Quartiles(xs)
	return fmt.Sprintf("n=%d p50=%.4g q1=%.4g q3=%.4g mad=%.4g", len(xs), Median(xs), q1, q3, MAD(xs))
}
