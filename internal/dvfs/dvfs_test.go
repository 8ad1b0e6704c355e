package dvfs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultCoreLadder(t *testing.T) {
	l := DefaultCoreLadder()
	if got := l.Len(); got != 10 {
		t.Fatalf("core ladder has %d steps, want 10", got)
	}
	if got := l.Min(); math.Abs(got-2.2) > 1e-12 {
		t.Errorf("min freq = %g, want 2.2", got)
	}
	if got := l.Max(); math.Abs(got-4.0) > 1e-12 {
		t.Errorf("max freq = %g, want 4.0", got)
	}
	if got := l.Volt(0); math.Abs(got-0.65) > 1e-12 {
		t.Errorf("min volt = %g, want 0.65", got)
	}
	if got := l.Volt(l.MaxStep()); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("max volt = %g, want 1.2", got)
	}
	// Equally spaced: step 0.2 GHz.
	for i := 1; i < l.Len(); i++ {
		if d := l.Freq(i) - l.Freq(i-1); math.Abs(d-0.2) > 1e-9 {
			t.Errorf("step %d spacing = %g, want 0.2", i, d)
		}
	}
}

func TestDefaultMemLadder(t *testing.T) {
	l := DefaultMemLadder()
	if got := l.Len(); got != 10 {
		t.Fatalf("mem ladder has %d steps, want 10", got)
	}
	if got := l.Min(); math.Abs(got-0.200) > 1e-12 {
		t.Errorf("min = %g, want 0.200", got)
	}
	if got := l.Max(); math.Abs(got-0.800) > 1e-12 {
		t.Errorf("max = %g, want 0.800", got)
	}
	// ~66 MHz steps as the paper specifies.
	for i := 1; i < l.Len(); i++ {
		d := l.Freq(i) - l.Freq(i-1)
		if d < 0.060 || d > 0.070 {
			t.Errorf("step %d spacing = %g GHz, want ~0.066", i, d)
		}
	}
}

func TestNewLadderErrors(t *testing.T) {
	cases := []struct {
		name  string
		freqs []float64
		volts []float64
	}{
		{"empty", nil, nil},
		{"length mismatch", []float64{1, 2}, []float64{1}},
		{"non-ascending", []float64{2, 1}, []float64{1, 1}},
		{"duplicate", []float64{1, 1}, []float64{1, 1}},
		{"zero freq", []float64{0, 1}, []float64{1, 1}},
		{"negative volt", []float64{1, 2}, []float64{1, -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewLadder(c.freqs, c.volts); err == nil {
				t.Fatalf("NewLadder(%v, %v) succeeded, want error", c.freqs, c.volts)
			}
		})
	}
}

func TestNewUniformLadderErrors(t *testing.T) {
	if _, err := NewUniformLadder(0, 1, 2, 1, 1); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := NewUniformLadder(3, -1, 2, 1, 1); err == nil {
		t.Error("negative fMin accepted")
	}
	if _, err := NewUniformLadder(3, 2, 1, 1, 1); err == nil {
		t.Error("fMax < fMin accepted")
	}
}

func TestSingleStepLadder(t *testing.T) {
	l, err := NewUniformLadder(1, 3.0, 3.0, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Nearest(99) != 0 || l.Nearest(0.1) != 0 {
		t.Error("single-step ladder must always quantize to step 0")
	}
	if l.NormFreq(0) != 1.0 {
		t.Errorf("NormFreq = %g, want 1", l.NormFreq(0))
	}
}

func TestNearest(t *testing.T) {
	l := DefaultCoreLadder()
	cases := []struct {
		f    float64
		want int
	}{
		{0.0, 0},
		{2.2, 0},
		{2.29, 0},
		{2.31, 1},
		{4.0, 9},
		{5.5, 9},
		{3.0, 4},  // exact step
		{3.11, 5}, // closer to 3.2 than 3.0... actually 3.11 is closer to 3.2? |3.11-3.0|=0.11, |3.11-3.2|=0.09 → step 5
	}
	for _, c := range cases {
		if got := l.Nearest(c.f); got != c.want {
			t.Errorf("Nearest(%g) = %d (%.2f GHz), want %d", c.f, got, l.Freq(got), c.want)
		}
	}
}

func TestNearestNormRoundTrip(t *testing.T) {
	l := DefaultCoreLadder()
	for i := 0; i < l.Len(); i++ {
		if got := l.NearestNorm(l.NormFreq(i)); got != i {
			t.Errorf("NearestNorm(NormFreq(%d)) = %d, want %d", i, got, i)
		}
	}
}

func TestVoltAtFreq(t *testing.T) {
	l := DefaultCoreLadder()
	if got := l.VoltAtFreq(2.2); math.Abs(got-0.65) > 1e-12 {
		t.Errorf("VoltAtFreq(2.2) = %g, want 0.65", got)
	}
	if got := l.VoltAtFreq(4.0); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("VoltAtFreq(4.0) = %g, want 1.2", got)
	}
	// Clamps below/above.
	if got := l.VoltAtFreq(1.0); got != 0.65 {
		t.Errorf("VoltAtFreq(1.0) = %g, want clamp to 0.65", got)
	}
	if got := l.VoltAtFreq(9.0); got != 1.2 {
		t.Errorf("VoltAtFreq(9.0) = %g, want clamp to 1.2", got)
	}
	// Midpoint interpolates: 3.1 GHz is halfway → 0.925 V.
	if got := l.VoltAtFreq(3.1); math.Abs(got-0.925) > 1e-9 {
		t.Errorf("VoltAtFreq(3.1) = %g, want 0.925", got)
	}
	// Monotone in f.
	prev := 0.0
	for f := 2.0; f <= 4.2; f += 0.01 {
		v := l.VoltAtFreq(f)
		if v < prev {
			t.Fatalf("VoltAtFreq not monotone at f=%g", f)
		}
		prev = v
	}
}

func TestStepRange(t *testing.T) {
	l := DefaultCoreLadder()
	if got, want := l.StepRange(), 4.0/2.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("StepRange = %g, want %g", got, want)
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultCoreLadder().Validate(); err != nil {
		t.Errorf("core ladder invalid: %v", err)
	}
	if err := DefaultMemLadder().Validate(); err != nil {
		t.Errorf("mem ladder invalid: %v", err)
	}
	if err := (&Ladder{}).Validate(); err == nil {
		t.Error("empty ladder validated")
	}
	if err := (&Ladder{freqs: []float64{math.NaN()}, volts: []float64{1}}).Validate(); err == nil {
		t.Error("NaN frequency validated")
	}
}

// Property: Nearest always returns the step minimizing |f - Freq(step)|.
func TestNearestIsArgmin(t *testing.T) {
	l := DefaultCoreLadder()
	f := func(raw float64) bool {
		// Map arbitrary float into a reasonable range [0, 8) GHz.
		x := math.Mod(math.Abs(raw), 8.0)
		got := l.Nearest(x)
		best, bestD := 0, math.Inf(1)
		for i := 0; i < l.Len(); i++ {
			if d := math.Abs(x - l.Freq(i)); d < bestD {
				best, bestD = i, d
			}
		}
		return math.Abs(x-l.Freq(got)) <= bestD+1e-12 && got >= 0 && got < l.Len() && best >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
