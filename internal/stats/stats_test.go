package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if got := Mean(xs); got != 2.8 {
		t.Errorf("Mean = %g", got)
	}
	if got := Max(xs); got != 5 {
		t.Errorf("Max = %g", got)
	}
	if got := Min(xs); got != 1 {
		t.Errorf("Min = %g", got)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !math.IsInf(Max(nil), -1) || !math.IsInf(Min(nil), 1) {
		t.Error("empty Max/Min not infinite")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {-5, 10}, {110, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile != 0")
	}
	// Does not mutate input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal Jain = %g, want 1", got)
	}
	// One app hogging everything among n: index → 1/n.
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("hog Jain = %g, want 0.25", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Error("degenerate Jain not 0")
	}
}

func TestJainBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		nonzero := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return JainIndex(xs) == 0
		}
		j := JainIndex(xs)
		return j >= 1/float64(len(xs))-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarizePerf(t *testing.T) {
	s := SummarizePerf([]float64{1.1, 1.2, 1.5, 1.2})
	if math.Abs(s.Avg-1.25) > 1e-12 {
		t.Errorf("Avg = %g", s.Avg)
	}
	if s.Worst != 1.5 {
		t.Errorf("Worst = %g", s.Worst)
	}
	if s.Jain <= 0.9 || s.Jain > 1 {
		t.Errorf("Jain = %g", s.Jain)
	}
}
