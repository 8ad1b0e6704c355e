// Package power implements the FastCap power models (paper Eqs. 2 and 3)
// and the online parameter fitting the controller performs from recent
// (frequency, power) observations (paper §III-C).
//
// Core power:   P_i(f) = Pi · (f/f_max)^αi + Pi,static   with αi ∈ [2, 3]
// Memory power: P_m(f) = Pm · (f/f_max)^β  + Pm,static   with β ≈ 1
//
// All powers are in watts; frequencies enter only as the normalized
// scaling factor f/f_max = z̄/z = s̄_b/s_b ∈ (0, 1].
package power

import (
	"fmt"
	"math"
)

// Model is a single fitted frequency-dependent power curve
// P(x) = Scale·x^Exp + Static, where x is the normalized frequency.
type Model struct {
	Scale  float64 // W at x = 1 (maximum frequency), dynamic portion
	Exp    float64 // curvature exponent (α for cores, β for memory)
	Static float64 // frequency-independent floor, W
}

// At evaluates the model at normalized frequency x ∈ (0, 1]. Values
// outside (0, 1] are clamped so the model stays physical when callers
// probe slightly out of range.
func (m Model) At(x float64) float64 {
	if x <= 0 {
		return m.Static
	}
	if x > 1 {
		x = 1
	}
	return m.Scale*math.Pow(x, m.Exp) + m.Static
}

// DynamicSlope is the kernel of the optimizer's fused power sweep: for a
// normalized frequency strictly inside (0, 1) it returns the dynamic
// term w = Scale·x^Exp and its log-slope x·dw/dx = Exp·w, which a caller
// that knows dx/dD turns into a derivative with no further
// transcendental. x is positive and finite by contract, so the power is
// exp(Exp·ln x) without math.Pow's special-case, Frexp and Ldexp work;
// the two agree to a few ulp.
func (m Model) DynamicSlope(x float64) (w, slope float64) {
	w = m.Scale * math.Exp(m.Exp*math.Log(x))
	return w, m.Exp * w
}

// Peak returns the model's power at maximum frequency.
func (m Model) Peak() float64 { return m.Scale + m.Static }

// Valid reports whether the model parameters are finite and physical.
func (m Model) Valid() bool {
	for _, v := range []float64{m.Scale, m.Exp, m.Static} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return m.Scale >= 0 && m.Exp > 0 && m.Static >= 0
}

// String renders the model for logs and reports.
func (m Model) String() string {
	return fmt.Sprintf("%.3g·x^%.3g + %.3g W", m.Scale, m.Exp, m.Static)
}

// sample is one observed (normalized frequency, measured dynamic power)
// pair, with the logarithms the fit works in taken once, when the sample
// is stored, rather than on every Model call.
type sample struct {
	x  float64 // normalized frequency in (0, 1]
	p  float64 // measured dynamic (static-subtracted) power, W
	lx float64 // ln x
	lp float64 // ln p
}

// Fitter re-estimates Scale and Exp online from recent observations, as
// FastCap does each epoch: "FastCap keeps data about the last three
// frequencies it has seen, and periodically recomputes these parameters"
// (paper §III-C). Static power is measured offline and held fixed.
//
// The fit is a least-squares line in log space: log p = log Scale + Exp·log x.
// Observations at the same (or nearly the same) frequency replace each
// other rather than accumulate, so the history always spans distinct
// frequencies and the system of equations stays well conditioned.
type Fitter struct {
	static   float64
	history  []sample // most recent last; distinct x values
	keep     int      // how many distinct frequencies to retain
	fallback Model    // returned until enough observations arrive
	expLo    float64  // clamp range for the fitted exponent
	expHi    float64
}

// NewCoreFitter builds a fitter for a core power curve. peakGuess seeds
// the fallback model's Scale; the paper notes α is typically between 2
// and 3, so the exponent is clamped to [1.5, 3.5] to reject degenerate
// fits from noisy counters.
func NewCoreFitter(static, peakGuess float64) *Fitter {
	return &Fitter{
		static:   static,
		keep:     3,
		fallback: Model{Scale: peakGuess, Exp: 2.5, Static: static},
		expLo:    1.5,
		expHi:    3.5,
	}
}

// NewMemFitter builds a fitter for the memory power curve. The paper
// observes β close to 1 (frequency-only scaling of bus and DIMMs), so the
// exponent is clamped to [0.5, 2.0].
func NewMemFitter(static, peakGuess float64) *Fitter {
	return &Fitter{
		static:   static,
		keep:     3,
		fallback: Model{Scale: peakGuess, Exp: 1.0, Static: static},
		expLo:    0.5,
		expHi:    2.0,
	}
}

// Observe records a measured total power at normalized frequency x.
// Non-positive dynamic residuals (total below static) and out-of-range x
// are ignored: they arise from counter noise during transitions.
func (f *Fitter) Observe(x, totalPower float64) {
	if x <= 0 || x > 1+1e-9 || math.IsNaN(totalPower) {
		return
	}
	if x > 1 {
		x = 1
	}
	dyn := totalPower - f.static
	if dyn <= 0 {
		return
	}
	const sameFreqTol = 1e-3
	s := sample{x: x, p: dyn, lx: math.Log(x), lp: math.Log(dyn)}
	// s takes the place of the sample at the same frequency, or of the
	// oldest one once keep distinct frequencies are held, and goes to the
	// back (most recent).
	drop := len(f.history)
	for i := range f.history {
		if math.Abs(f.history[i].x-x) < sameFreqTol {
			drop = i
			break
		}
	}
	if drop == len(f.history) { // a frequency not held yet
		if len(f.history) < f.keep {
			f.history = append(f.history, s)
			return
		}
		drop = 0
	}
	copy(f.history[drop:], f.history[drop+1:])
	f.history[len(f.history)-1] = s
}

// Model returns the current best-fit model. With fewer than two distinct
// frequencies observed, the dynamic scale is taken from the single
// observation (if any) under the fallback exponent; with none, the
// fallback model is returned unchanged.
func (f *Fitter) Model() Model {
	switch len(f.history) {
	case 0:
		return f.fallback
	case 1:
		s := f.history[0]
		exp := f.fallback.Exp
		scale := s.p / math.Pow(s.x, exp)
		m := Model{Scale: scale, Exp: exp, Static: f.static}
		if !m.Valid() {
			return f.fallback
		}
		return m
	}
	// Least squares in log space over all retained samples.
	var sx, sy, sxx, sxy float64
	n := float64(len(f.history))
	for _, s := range f.history {
		sx += s.lx
		sy += s.lp
		sxx += s.lx * s.lx
		sxy += s.lx * s.lp
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		// All samples at x≈1 (log x ≈ 0): exponent unidentifiable; keep
		// fallback exponent, refresh the scale from the newest sample.
		s := f.history[len(f.history)-1]
		return Model{Scale: s.p / math.Pow(s.x, f.fallback.Exp), Exp: f.fallback.Exp, Static: f.static}
	}
	exp := (n*sxy - sx*sy) / den
	if exp < f.expLo {
		exp = f.expLo
	} else if exp > f.expHi {
		exp = f.expHi
	}
	// Refit the scale with the clamped exponent (least squares on Scale).
	var num, denS float64
	for _, s := range f.history {
		w := math.Pow(s.x, exp)
		num += s.p * w
		denS += w * w
	}
	scale := num / denS
	m := Model{Scale: scale, Exp: exp, Static: f.static}
	if !m.Valid() {
		return f.fallback
	}
	return m
}

// System aggregates the full-system power model FastCap optimizes over:
// per-core models, one memory model, and the frequency-independent rest
// of the system P_s (paper §III-A: disks, NICs, L2, controller static).
type System struct {
	Cores []Model
	Mem   Model
	Ps    float64
}

// Peak returns full-system power with every component at maximum
// frequency — the P̄ against which budgets B·P̄ are expressed.
func (s *System) Peak() float64 {
	sum := s.Ps + s.Mem.Peak()
	for _, m := range s.Cores {
		sum += m.Peak()
	}
	return sum
}
