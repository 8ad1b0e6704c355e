// Package dvfs models the discrete voltage/frequency ladders available to
// the cores and to the memory subsystem, mirroring the platform evaluated
// in the FastCap paper (ISPASS 2016, §IV-A): ten equally spaced core
// frequencies between 2.2 and 4.0 GHz with voltage scaling proportionally
// between 0.65 V and 1.2 V (Sandy Bridge-like), and a memory bus ladder
// from 200 to 800 MHz in 66 MHz steps.
//
// Frequencies are expressed in GHz throughout this package; times derived
// from them are in nanoseconds (1/GHz = ns).
package dvfs

import (
	"fmt"
	"math"
	"sort"
)

// Ladder is an immutable, ascending list of selectable frequencies (GHz)
// together with the voltage (V) applied at each step.
type Ladder struct {
	freqs []float64
	volts []float64
}

// NewLadder builds a ladder from explicit frequency/voltage pairs.
// Frequencies must be strictly ascending and positive, and both slices
// must have the same nonzero length.
func NewLadder(freqs, volts []float64) (*Ladder, error) {
	if len(freqs) == 0 {
		return nil, fmt.Errorf("dvfs: ladder needs at least one step")
	}
	if len(freqs) != len(volts) {
		return nil, fmt.Errorf("dvfs: %d frequencies but %d voltages", len(freqs), len(volts))
	}
	for i, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("dvfs: frequency %g at step %d must be positive", f, i)
		}
		if i > 0 && f <= freqs[i-1] {
			return nil, fmt.Errorf("dvfs: frequencies must be strictly ascending (step %d)", i)
		}
		if volts[i] <= 0 {
			return nil, fmt.Errorf("dvfs: voltage %g at step %d must be positive", volts[i], i)
		}
	}
	l := &Ladder{
		freqs: append([]float64(nil), freqs...),
		volts: append([]float64(nil), volts...),
	}
	return l, nil
}

// NewUniformLadder builds a ladder with n equally spaced frequencies in
// [fMin, fMax] and voltages interpolated linearly in [vMin, vMax], with
// voltage proportional to frequency as the paper assumes.
func NewUniformLadder(n int, fMin, fMax, vMin, vMax float64) (*Ladder, error) {
	if n < 1 {
		return nil, fmt.Errorf("dvfs: need at least one step, got %d", n)
	}
	if fMin <= 0 || fMax < fMin {
		return nil, fmt.Errorf("dvfs: invalid frequency range [%g, %g]", fMin, fMax)
	}
	freqs := make([]float64, n)
	volts := make([]float64, n)
	for i := 0; i < n; i++ {
		t := 0.0
		if n > 1 {
			t = float64(i) / float64(n-1)
		}
		freqs[i] = fMin + t*(fMax-fMin)
		volts[i] = vMin + t*(vMax-vMin)
	}
	return NewLadder(freqs, volts)
}

// DefaultCoreLadder returns the paper's core DVFS ladder: 10 equally
// spaced steps covering 2.2–4.0 GHz at 0.65–1.2 V.
func DefaultCoreLadder() *Ladder {
	l, err := NewUniformLadder(10, 2.2, 4.0, 0.65, 1.2)
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	return l
}

// EfficiencyCoreLadder returns the little-core ladder used by the
// heterogeneous (big.LITTLE-style) machine specs: 8 equally spaced
// steps covering 1.2–2.4 GHz at 0.55–0.95 V. Compared to the paper's
// big-core ladder it trades the top half of the frequency range for a
// much lower voltage envelope.
func EfficiencyCoreLadder() *Ladder {
	l, err := NewUniformLadder(8, 1.2, 2.4, 0.55, 0.95)
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	return l
}

// BinnedCoreLadder returns the slow-bin variant of the paper's core
// ladder: the same 10 steps and voltage envelope, with every frequency
// derated to 2.0–3.6 GHz — a part from the same design whose silicon
// did not bin to the full 4.0 GHz.
func BinnedCoreLadder() *Ladder {
	l, err := NewUniformLadder(10, 2.0, 3.6, 0.65, 1.2)
	if err != nil {
		panic(err)
	}
	return l
}

// NamedCoreLadder resolves a core-class ladder preset by name — the
// vocabulary the serving layer and machine specs accept:
//
//	"perf" (or ""): the paper's 2.2–4.0 GHz big-core ladder
//	"efficiency":   the 1.2–2.4 GHz little-core ladder
//	"binned":       the 2.0–3.6 GHz slow-bin ladder
func NamedCoreLadder(name string) (*Ladder, error) {
	switch name {
	case "", "perf":
		return DefaultCoreLadder(), nil
	case "efficiency":
		return EfficiencyCoreLadder(), nil
	case "binned":
		return BinnedCoreLadder(), nil
	default:
		return nil, fmt.Errorf("dvfs: unknown ladder preset %q (want perf, efficiency, or binned)", name)
	}
}

// DefaultMemLadder returns the paper's memory bus ladder: 200–800 MHz in
// 66 MHz steps (0.200, 0.266, ..., 0.800 GHz — ten steps). Bus and DRAM
// chips scale frequency only, so the voltage column is held at the DDR3
// nominal 1.5 V for every step.
func DefaultMemLadder() *Ladder {
	const steps = 10
	freqs := make([]float64, steps)
	volts := make([]float64, steps)
	for i := 0; i < steps; i++ {
		freqs[i] = 0.200 + 0.0666666666666667*float64(i)
		volts[i] = 1.5
	}
	freqs[steps-1] = 0.800 // pin the top step exactly
	l, err := NewLadder(freqs, volts)
	if err != nil {
		panic(err)
	}
	return l
}

// Len returns the number of steps in the ladder.
func (l *Ladder) Len() int { return len(l.freqs) }

// Freq returns the frequency (GHz) at step i. Steps are 0-based and
// ascending; the highest step is Len()-1.
func (l *Ladder) Freq(i int) float64 { return l.freqs[i] }

// Volt returns the voltage (V) at step i.
func (l *Ladder) Volt(i int) float64 { return l.volts[i] }

// Max returns the highest frequency (GHz) in the ladder.
func (l *Ladder) Max() float64 { return l.freqs[len(l.freqs)-1] }

// Min returns the lowest frequency (GHz) in the ladder.
func (l *Ladder) Min() float64 { return l.freqs[0] }

// MaxStep returns the index of the highest frequency.
func (l *Ladder) MaxStep() int { return len(l.freqs) - 1 }

// Freqs returns a copy of all frequencies, ascending.
func (l *Ladder) Freqs() []float64 { return append([]float64(nil), l.freqs...) }

// Volts returns a copy of all voltages, aligned with Freqs.
func (l *Ladder) Volts() []float64 { return append([]float64(nil), l.volts...) }

// NormFreq returns Freq(i)/Max(), the frequency scaling factor in (0, 1].
func (l *Ladder) NormFreq(i int) float64 { return l.freqs[i] / l.Max() }

// StepRange returns Max()/Min(), i.e. how much slower the lowest step is
// than the highest. FastCap uses this to bound think-time dilation.
func (l *Ladder) StepRange() float64 { return l.Max() / l.Min() }

// Nearest returns the step whose frequency is closest to f (GHz), with
// ties resolved toward the higher step. Values outside the ladder range
// clamp to the first or last step.
func (l *Ladder) Nearest(f float64) int {
	i := sort.SearchFloat64s(l.freqs, f)
	if i == 0 {
		return 0
	}
	if i == len(l.freqs) {
		return len(l.freqs) - 1
	}
	if f-l.freqs[i-1] < l.freqs[i]-f {
		return i - 1
	}
	return i
}

// NearestNorm returns the step whose normalized frequency (Freq/Max) is
// closest to the scaling factor norm ∈ (0, 1]. This is the quantization
// FastCap applies to the continuous optimizer output z̄_i/z_i.
func (l *Ladder) NearestNorm(norm float64) int {
	return l.Nearest(norm * l.Max())
}

// VoltAtFreq linearly interpolates the ladder's voltage at an arbitrary
// frequency f (GHz), clamping outside the range. It reflects the paper's
// assumption that voltage scales proportionally with frequency between
// the endpoints.
func (l *Ladder) VoltAtFreq(f float64) float64 {
	if f <= l.freqs[0] {
		return l.volts[0]
	}
	n := len(l.freqs)
	if f >= l.freqs[n-1] {
		return l.volts[n-1]
	}
	i := sort.SearchFloat64s(l.freqs, f)
	f0, f1 := l.freqs[i-1], l.freqs[i]
	v0, v1 := l.volts[i-1], l.volts[i]
	t := (f - f0) / (f1 - f0)
	return v0 + t*(v1-v0)
}

// Validate sanity-checks ladder invariants; it is used by property tests
// and returns a descriptive error if an invariant is broken.
func (l *Ladder) Validate() error {
	if len(l.freqs) == 0 {
		return fmt.Errorf("dvfs: empty ladder")
	}
	for i := range l.freqs {
		if math.IsNaN(l.freqs[i]) || math.IsInf(l.freqs[i], 0) {
			return fmt.Errorf("dvfs: non-finite frequency at step %d", i)
		}
		if i > 0 && l.freqs[i] <= l.freqs[i-1] {
			return fmt.Errorf("dvfs: non-ascending at step %d", i)
		}
	}
	return nil
}
