// Package stats provides the numeric summaries used by the experiment
// harness: means, extremes, Jain's fairness index, and normalized-
// performance aggregation as reported in the paper's figures.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile by linear interpolation.
// Out-of-range ranks clamp — p < 0 behaves as 0 (the minimum) and
// p > 100 as 100 (the maximum) — never extrapolating beyond the data.
// A NaN p, or any NaN sample, yields NaN: sorting NaNs produces an
// arbitrary permutation, so any numeric answer would be silently wrong.
// An empty slice returns 0, matching Mean.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN()
		}
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return sortedPercentile(ys, p)
}

// sortedPercentile is the shared rank computation over an already
// ascending, NaN-free, non-empty slice.
func sortedPercentile(ys []float64, p float64) float64 {
	if p <= 0 {
		return ys[0]
	}
	if p >= 100 {
		return ys[len(ys)-1]
	}
	pos := p / 100 * float64(len(ys)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(ys) {
		return ys[len(ys)-1]
	}
	return ys[lo]*(1-frac) + ys[lo+1]*frac
}

// Percentiles evaluates several percentiles of one sample with a single
// copy-and-sort, returning one value per requested rank. Each output is
// exactly what Percentile(xs, p) returns — the same clamping (p ≤ 0 is
// the minimum, p ≥ 100 the maximum), the same NaN propagation (a NaN
// rank yields NaN in its slot; any NaN sample poisons every slot), and
// 0 for an empty sample — just without re-sorting per rank.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			for i := range out {
				out[i] = math.NaN()
			}
			return out
		}
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	for i, p := range ps {
		if math.IsNaN(p) {
			out[i] = math.NaN()
			continue
		}
		out[i] = sortedPercentile(ys, p)
	}
	return out
}

// JainIndex computes Jain's fairness index (Σx)²/(n·Σx²) ∈ (0, 1]:
// 1 means perfectly equal allocation.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// PerfSummary aggregates normalized per-application performance the way
// the paper's Figs. 6, 9–11, 13 report it: the average and the worst
// (highest, since >1 means slower) across applications.
type PerfSummary struct {
	Avg   float64
	Worst float64
	Jain  float64
}

// SummarizePerf builds a PerfSummary from per-application normalized
// performance values (capped time-per-instruction / baseline).
func SummarizePerf(norm []float64) PerfSummary {
	return PerfSummary{Avg: Mean(norm), Worst: Max(norm), Jain: JainIndex(norm)}
}
