package stats

import (
	"math"
	"testing"
)

// The streaming summary must agree with the batch estimators on the
// same samples — it is the same statistics, computed incrementally.
func TestStreamingMatchesBatch(t *testing.T) {
	cases := [][]float64{
		{},
		{3.5},
		{1, 2, 3, 4, 5},
		{-7, 0.25, 1e6, -3.5, 42, 42},
		{0.001, 0.002, 0.0005, 0.009, 0.004},
	}
	for _, xs := range cases {
		var s Streaming
		for _, x := range xs {
			s.Observe(x)
		}
		if got, want := s.Count(), uint64(len(xs)); got != want {
			t.Errorf("%v: Count = %d, want %d", xs, got, want)
		}
		approx := func(name string, got, want float64) {
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("%v: %s = %g, want %g", xs, name, got, want)
			}
		}
		approx("Mean", s.Mean(), Mean(xs))
		approx("Max", s.Max(), Max(xs))
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		approx("Sum", s.Sum(), sum)
	}
}

func TestStreamingEmpty(t *testing.T) {
	var s Streaming
	if s.Mean() != 0 || s.Sum() != 0 || s.Count() != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
	if !math.IsInf(s.Max(), -1) {
		t.Errorf("empty Max = %g, want -Inf", s.Max())
	}
}

func TestStreamingNaNPoisons(t *testing.T) {
	var s Streaming
	s.Observe(1)
	s.Observe(math.NaN())
	s.Observe(2)
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3 (NaN still counts)", s.Count())
	}
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Sum()) {
		t.Errorf("NaN observation did not poison Mean/Sum: %g, %g", s.Mean(), s.Sum())
	}
}

func TestBucketIndex(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	for _, c := range []struct {
		x    float64
		want int
	}{
		{0, 0}, {0.001, 0}, {0.0011, 1}, {0.05, 2}, {1, 3}, {1.5, 4},
		{math.Inf(1), 4}, {math.Inf(-1), 0},
	} {
		if got := BucketIndex(bounds, c.x); got != c.want {
			t.Errorf("BucketIndex(%g) = %d, want %d", c.x, got, c.want)
		}
	}
	if got := BucketIndex(nil, 5); got != 0 {
		t.Errorf("BucketIndex(nil, 5) = %d, want 0", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("bucket[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("malformed ExpBuckets did not panic")
				}
			}()
			bad()
		}()
	}
}
