package stats

import "math"

// Streaming is an O(1)-memory online summary: count, sum, maximum and
// Welford-updated mean. It exists for long-running telemetry (the
// metrics histograms observe every epoch of a daemon that may run for
// days) where keeping raw samples for Percentile would grow without
// bound. The zero value is an empty summary, ready to use.
//
// Numerics: every update is O(1). A NaN observation poisons Sum/Mean —
// like Percentile, any numeric answer over NaN data would be silently
// wrong — while Count keeps counting.
//
// Streaming is not goroutine-safe; callers that share one (the metrics
// histogram) serialize access themselves.
type Streaming struct {
	n    uint64
	sum  float64
	max  float64
	mean float64
}

// Observe folds one sample into the summary.
func (s *Streaming) Observe(x float64) {
	s.n++
	s.sum += x
	if s.n == 1 || x > s.max {
		s.max = x
	}
	s.mean += (x - s.mean) / float64(s.n)
}

// Count returns the number of samples observed.
func (s Streaming) Count() uint64 { return s.n }

// Sum returns the running total.
func (s Streaming) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 when empty (matching the
// batch stats.Mean).
func (s Streaming) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Max returns the maximum, or -Inf when empty (matching the batch
// stats.Max).
func (s Streaming) Max() float64 {
	if s.n == 0 {
		return math.Inf(-1)
	}
	return s.max
}

// BucketIndex returns the index of the first bound with x <= bound, or
// len(bounds) when x exceeds every bound (the +Inf overflow bucket).
// Bounds must be sorted ascending. Linear scan: metric histograms use a
// dozen-odd buckets, where the scan beats binary search's branches.
func BucketIndex(bounds []float64, x float64) int {
	for i, b := range bounds {
		if x <= b {
			return i
		}
	}
	return len(bounds)
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the standard shape for latency histograms, where
// interesting behavior spans orders of magnitude. Panics on a
// non-positive start or n, or factor <= 1, since a malformed bucket
// layout is a programming error best caught at construction.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("stats: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	bs := make([]float64, n)
	b := start
	for i := range bs {
		bs[i] = b
		b *= factor
	}
	return bs
}
