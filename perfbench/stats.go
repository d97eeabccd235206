package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to mean anything: p99 needs 1000 samples, p99.9 needs 10000.
const minBeyond = 10

// tailLadder lists the percentiles tail may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile (0..1) of an ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median of an unsorted slice.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tail reports the highest percentile of tailLadder that has at least
// minBeyond samples above it, and its value, for an ascending slice.
// ok is false when even the median lacks that many samples.
func tail(s []float64) (pct, v float64, ok bool) {
	n := float64(len(s))
	for _, p := range tailLadder {
		if n*(1-p/100) >= minBeyond-1e-9 {
			return p, quantile(s, p/100), true
		}
	}
	return 0, math.NaN(), false
}

// pctAtLeast returns the p-th percentile of an ascending slice, or an
// error naming what when fewer than minBeyond samples lie beyond it.
func pctAtLeast(s []float64, p float64, what string) (float64, error) {
	top, _, ok := tail(s)
	if !ok || top < p {
		return 0, fmt.Errorf("%s: %d samples cannot support p%g (need %d beyond it)", what, len(s), p, minBeyond)
	}
	return quantile(s, p/100), nil
}
