package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// minBeyond is the sample-count rule for percentiles: a percentile is
// trusted only when at least this many samples lie beyond it, so p50
// needs 20 samples and p95 needs 200.
const minBeyond = 10

// trusted applies the minBeyond rule to the p-th percentile (0 < p < 1)
// of n samples.
func trusted(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond
}

// median returns the middle of vs (0 when empty).
func median(vs []float64) float64 { return stats.Percentile(vs, 50) }

// bandPercentile returns the mean of the samples ranked inside a band
// around the p-th percentile (0 < p < 1): the middle half of the sample
// around the median (the interquartile mean), narrowing towards the
// tails so that the band around p95 runs from p92.5 to p97.5 and leaves
// the largest samples out.
//
// The workloads repeat deterministic work, so their samples sit in a
// few tight clusters (one per simulated epoch of a session, one per
// scheduler time slice waited), and the plain percentile is whichever
// cluster the rank happens to fall in: it jumps between neighbours when
// one sample moves. The band mean moves by the share of the band that
// changed cluster.
func bandPercentile(vs []float64, p float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	w := math.Min(p, 1-p) / 2
	lo := int(math.Floor((p - w) * float64(n)))
	hi := int(math.Ceil((p + w) * float64(n)))
	lo, hi = max(lo, 0), min(hi, n)
	if hi <= lo {
		lo, hi = min(lo, n-1), min(lo, n-1)+1
	}
	return stats.Mean(s[lo:hi])
}

// latencies collects latency samples in milliseconds, keyed by class. A
// workload that mixes work of very different cost (an ILP1 epoch at
// 5 ms next to a MEM1 epoch at 57 ms; a budget raised next to a budget
// cut) has a multi-modal distribution whose pooled median sits on the
// edge between two modes; computing the percentile inside each class
// and averaging over classes keeps every class's mode in the number and
// none of the edges.
type latencies struct {
	byClass [][]float64
	// plain selects the plain percentile over the band mean. A stream
	// consumer that shares the processors with the daemon's workers gets
	// to run once per scheduler time slice, so its samples are whole
	// multiples of a slice; the plain percentile names the multiple (and
	// repeats to a thousandth), where the band mean would mix two of them
	// in proportions that differ from run to run.
	plain bool
}

func (l *latencies) add(class int, d time.Duration) {
	for len(l.byClass) <= class {
		l.byClass = append(l.byClass, nil)
	}
	l.byClass[class] = append(l.byClass[class], float64(d)/1e6)
}

// merge appends o's samples (the per-client collectors of a closed-loop
// workload are merged after the timed phase).
func (l *latencies) merge(o *latencies) {
	for c, vs := range o.byClass {
		for len(l.byClass) <= c {
			l.byClass = append(l.byClass, nil)
		}
		l.byClass[c] = append(l.byClass[c], vs...)
	}
}

// pct returns the mean over non-empty classes of the class's p-th
// percentile (0 < p < 1; the band mean unless plain is set) and the
// pooled sample count.
func (l *latencies) pct(p float64) (v float64, n int) {
	classes := 0
	for _, vs := range l.byClass {
		if len(vs) == 0 {
			continue
		}
		if l.plain {
			v += stats.Percentile(vs, p*100)
		} else {
			v += bandPercentile(vs, p)
		}
		classes++
		n += len(vs)
	}
	if classes == 0 {
		return 0, 0
	}
	return v / float64(classes), n
}

// quartileSpread is the driver's steadiness measure: the distance
// between the first and third quartile of vs as a share of the median,
// with quartiles by the exclusive method Python's
// statistics.quantiles(values, n=4) uses. Fewer than two values have no
// spread.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
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
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// worseBy returns by what share of base the value cur is worse than
// base, given the metric's direction; negative when cur is better.
func worseBy(better string, base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// withinBound reports whether cur is no worse than base by more than
// bound (a share of base).
func withinBound(better string, bound, base, cur float64) bool {
	return worseBy(better, base, cur) <= bound
}
