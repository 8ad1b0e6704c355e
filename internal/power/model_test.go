package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestModelAt(t *testing.T) {
	m := Model{Scale: 4.0, Exp: 3.0, Static: 0.5}
	if got := m.At(1.0); !almostEqual(got, 4.5, 1e-12) {
		t.Errorf("At(1) = %g, want 4.5", got)
	}
	if got := m.At(0.5); !almostEqual(got, 4.0*0.125+0.5, 1e-12) {
		t.Errorf("At(0.5) = %g", got)
	}
	// Clamps.
	if got := m.At(0); got != 0.5 {
		t.Errorf("At(0) = %g, want static 0.5", got)
	}
	if got := m.At(2.0); !almostEqual(got, 4.5, 1e-12) {
		t.Errorf("At(2) = %g, want clamp to peak", got)
	}
	if got := m.Peak(); !almostEqual(got, 4.5, 1e-12) {
		t.Errorf("Peak = %g", got)
	}
}

func TestModelValid(t *testing.T) {
	good := Model{Scale: 1, Exp: 2, Static: 0}
	if !good.Valid() {
		t.Error("good model reported invalid")
	}
	bad := []Model{
		{Scale: -1, Exp: 2, Static: 0},
		{Scale: 1, Exp: 0, Static: 0},
		{Scale: 1, Exp: 2, Static: -0.1},
		{Scale: math.NaN(), Exp: 2, Static: 0},
		{Scale: 1, Exp: math.Inf(1), Static: 0},
	}
	for i, m := range bad {
		if m.Valid() {
			t.Errorf("bad model %d reported valid: %v", i, m)
		}
	}
}

func TestModelMonotone(t *testing.T) {
	m := Model{Scale: 4.0, Exp: 2.7, Static: 0.5}
	prev := m.At(0.01)
	for x := 0.02; x <= 1.0; x += 0.01 {
		cur := m.At(x)
		if cur < prev {
			t.Fatalf("model not monotone at x=%g", x)
		}
		prev = cur
	}
}

func TestFitterExactRecovery(t *testing.T) {
	// Feed exact samples from a known curve; the fit must recover it.
	truth := Model{Scale: 4.0, Exp: 2.7, Static: 0.5}
	f := NewCoreFitter(truth.Static, 1.0 /* bad guess on purpose */)
	for _, x := range []float64{1.0, 0.8, 0.6} {
		f.Observe(x, truth.At(x))
	}
	got := f.Model()
	if !almostEqual(got.Exp, truth.Exp, 1e-6) {
		t.Errorf("fitted exp = %g, want %g", got.Exp, truth.Exp)
	}
	if !almostEqual(got.Scale, truth.Scale, 1e-6) {
		t.Errorf("fitted scale = %g, want %g", got.Scale, truth.Scale)
	}
}

func TestFitterMemExactRecovery(t *testing.T) {
	truth := Model{Scale: 26.0, Exp: 1.05, Static: 10.0}
	f := NewMemFitter(truth.Static, 20.0)
	for _, x := range []float64{1.0, 0.5, 0.25} {
		f.Observe(x, truth.At(x))
	}
	got := f.Model()
	if !almostEqual(got.Exp, truth.Exp, 1e-6) {
		t.Errorf("fitted beta = %g, want %g", got.Exp, truth.Exp)
	}
	if !almostEqual(got.Scale, truth.Scale, 1e-6) {
		t.Errorf("fitted Pm = %g, want %g", got.Scale, truth.Scale)
	}
}

func TestFitterFallbacks(t *testing.T) {
	f := NewCoreFitter(0.5, 4.0)
	// No observations → fallback verbatim.
	m := f.Model()
	if m.Scale != 4.0 || m.Exp != 2.5 {
		t.Errorf("empty fitter model = %v, want fallback", m)
	}
	// One observation → scale inferred under fallback exponent.
	f.Observe(0.8, 0.5+4.0*math.Pow(0.8, 2.5))
	m = f.Model()
	if !almostEqual(m.Scale, 4.0, 1e-9) {
		t.Errorf("one-sample scale = %g, want 4.0", m.Scale)
	}
}

func TestFitterIgnoresGarbage(t *testing.T) {
	f := NewCoreFitter(0.5, 4.0)
	f.Observe(-1, 3)    // bad x
	f.Observe(0, 3)     // bad x
	f.Observe(1.5, 3)   // bad x (way out of range)
	f.Observe(0.8, 0.2) // below static → ignored
	f.Observe(0.8, math.NaN() /* NaN */)
	if len(f.history) != 0 {
		t.Fatalf("garbage observations retained: %d", len(f.history))
	}
}

func TestFitterSameFrequencyReplaces(t *testing.T) {
	f := NewCoreFitter(0.0, 1.0)
	f.Observe(0.8, 2.0)
	f.Observe(0.8, 3.0) // replaces, does not accumulate
	if len(f.history) != 1 {
		t.Fatalf("history length = %d, want 1", len(f.history))
	}
	if f.history[0].p != 3.0 {
		t.Errorf("replacement kept old value %g", f.history[0].p)
	}
}

func TestFitterKeepsThreeDistinct(t *testing.T) {
	f := NewCoreFitter(0.0, 1.0)
	for _, x := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		f.Observe(x, x*x)
	}
	if len(f.history) != 3 {
		t.Fatalf("history length = %d, want 3 (paper keeps last three)", len(f.history))
	}
	// Oldest retained should be 0.8.
	if f.history[0].x != 0.8 {
		t.Errorf("oldest retained x = %g, want 0.8", f.history[0].x)
	}
}

func TestFitterDegenerateSameX(t *testing.T) {
	// All observations at x = 1.0 collapses the regression; the fitter
	// must fall back to the default exponent with a refreshed scale.
	f := NewCoreFitter(0.5, 99.0)
	f.Observe(1.0, 4.5)
	m := f.Model()
	if !almostEqual(m.Scale, 4.0, 1e-9) {
		t.Errorf("scale = %g, want 4.0", m.Scale)
	}
	if m.Exp != 2.5 {
		t.Errorf("exp = %g, want fallback 2.5", m.Exp)
	}
}

func TestFitterExponentClamps(t *testing.T) {
	// Synthesize a nearly flat power curve (exp ~ 0.1); a core fitter must
	// clamp to its lower bound of 1.5.
	truth := Model{Scale: 4.0, Exp: 0.1, Static: 0}
	f := NewCoreFitter(0, 4.0)
	for _, x := range []float64{1.0, 0.7, 0.5} {
		f.Observe(x, truth.At(x))
	}
	if got := f.Model().Exp; got != 1.5 {
		t.Errorf("exp = %g, want clamp at 1.5", got)
	}
	// And a steep curve clamps at the top.
	steep := Model{Scale: 4.0, Exp: 6.0, Static: 0}
	f2 := NewCoreFitter(0, 4.0)
	for _, x := range []float64{1.0, 0.7, 0.5} {
		f2.Observe(x, steep.At(x))
	}
	if got := f2.Model().Exp; got != 3.5 {
		t.Errorf("exp = %g, want clamp at 3.5", got)
	}
}

func TestFitterPhaseChange(t *testing.T) {
	// After a phase change the fitter converges to the new curve once
	// three fresh samples arrive.
	old := Model{Scale: 2.0, Exp: 2.0, Static: 0.5}
	niu := Model{Scale: 4.5, Exp: 2.9, Static: 0.5}
	f := NewCoreFitter(0.5, 1.0)
	for _, x := range []float64{1.0, 0.8, 0.6} {
		f.Observe(x, old.At(x))
	}
	for _, x := range []float64{0.95, 0.75, 0.55} {
		f.Observe(x, niu.At(x))
	}
	got := f.Model()
	if !almostEqual(got.Exp, niu.Exp, 1e-6) || !almostEqual(got.Scale, niu.Scale, 1e-5) {
		t.Errorf("post-phase fit = %v, want %v", got, niu)
	}
}

func TestFitterNoisyRecovery(t *testing.T) {
	// With ±3% multiplicative noise the fit should still land within 10%
	// of the true parameters (the paper reports <10% model error).
	truth := Model{Scale: 4.0, Exp: 2.5, Static: 0.5}
	rng := rand.New(rand.NewSource(7))
	f := NewCoreFitter(truth.Static, 1.0)
	for _, x := range []float64{1.0, 0.75, 0.55} {
		noise := 1 + (rng.Float64()-0.5)*0.06
		f.Observe(x, truth.Static+(truth.At(x)-truth.Static)*noise)
	}
	got := f.Model()
	for x := 0.55; x <= 1.0; x += 0.05 {
		rel := math.Abs(got.At(x)-truth.At(x)) / truth.At(x)
		if rel > 0.10 {
			t.Errorf("model error %.1f%% at x=%g exceeds 10%%", rel*100, x)
		}
	}
}

// Property: for any positive truth parameters within clamp range, exact
// samples at three distinct frequencies recover the curve.
func TestFitterRecoveryProperty(t *testing.T) {
	f := func(rawScale, rawExp uint16) bool {
		scale := 0.5 + float64(rawScale%1000)/100.0 // [0.5, 10.5)
		exp := 1.6 + float64(rawExp%170)/100.0      // [1.6, 3.3)
		truth := Model{Scale: scale, Exp: exp, Static: 0.3}
		fit := NewCoreFitter(truth.Static, 1.0)
		for _, x := range []float64{1.0, 0.8, 0.6} {
			fit.Observe(x, truth.At(x))
		}
		got := fit.Model()
		return almostEqual(got.Exp, truth.Exp, 1e-5) && almostEqual(got.Scale, truth.Scale, 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSystemPeak(t *testing.T) {
	s := &System{
		Cores: []Model{
			{Scale: 4, Exp: 3, Static: 0.5},
			{Scale: 4, Exp: 3, Static: 0.5},
		},
		Mem: Model{Scale: 26, Exp: 1, Static: 10},
		Ps:  12,
	}
	wantPeak := 12 + 36.0 + 4.5*2
	if got := s.Peak(); !almostEqual(got, wantPeak, 1e-12) {
		t.Errorf("Peak = %g, want %g", got, wantPeak)
	}
}

// refitFromScratch is Fitter.Model as it was before the logarithms moved
// into Observe: every ln x and ln p recomputed from the retained samples
// on every call. The stored logs must leave every fitted bit unchanged.
func refitFromScratch(f *Fitter) Model {
	switch len(f.history) {
	case 0:
		return f.fallback
	case 1:
		s := f.history[0]
		m := Model{Scale: s.p / math.Pow(s.x, f.fallback.Exp), Exp: f.fallback.Exp, Static: f.static}
		if !m.Valid() {
			return f.fallback
		}
		return m
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(f.history))
	for _, s := range f.history {
		lx := math.Log(s.x)
		ly := math.Log(s.p)
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		s := f.history[len(f.history)-1]
		return Model{Scale: s.p / math.Pow(s.x, f.fallback.Exp), Exp: f.fallback.Exp, Static: f.static}
	}
	exp := (n*sxy - sx*sy) / den
	if exp < f.expLo {
		exp = f.expLo
	} else if exp > f.expHi {
		exp = f.expHi
	}
	var num, denS float64
	for _, s := range f.history {
		w := math.Pow(s.x, exp)
		num += s.p * w
		denS += w * w
	}
	m := Model{Scale: num / denS, Exp: exp, Static: f.static}
	if !m.Valid() {
		return f.fallback
	}
	return m
}

// Old-vs-new over random observation sequences: after every Observe the
// model from the stored logs equals the recomputed one bit for bit, and
// the retained history is what the append-and-trim bookkeeping kept —
// distinct frequencies, most recent last, at most keep of them.
func TestFitterStoredLogsBitIdentical(t *testing.T) {
	ladder := []float64{1, 0.95, 0.9, 0.8, 0.7, 0.6, 0.55, 0.5, 0.25}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := NewCoreFitter(0.5, 4.0)
		if seed%2 == 0 {
			f = NewMemFitter(10, 26)
		}
		var want []sample // the history rebuilt the old way
		for step := 0; step < 200; step++ {
			x := ladder[rng.Intn(len(ladder))]
			switch rng.Intn(8) {
			case 0:
				x += 1e-4 * (rng.Float64() - 0.5) // same frequency within tolerance
			case 1:
				x = rng.Float64() * 1.2 // anywhere, out of range included
			}
			total := f.static*(0.5+rng.Float64()) + 6*rng.Float64()*math.Pow(math.Abs(x), 1+2*rng.Float64())
			f.Observe(x, total)

			if xs, dyn := math.Min(x, 1), total-f.static; x > 0 && x <= 1+1e-9 && dyn > 0 {
				kept := want[:0:0]
				for _, s := range want {
					if math.Abs(s.x-xs) >= 1e-3 {
						kept = append(kept, s)
					}
				}
				if len(kept) < len(want) {
					want = append(kept, sample{x: xs, p: dyn})
				} else if want = append(want, sample{x: xs, p: dyn}); len(want) > f.keep {
					want = want[len(want)-f.keep:]
				}
			}
			if len(f.history) != len(want) {
				t.Fatalf("seed %d step %d: %d samples retained, want %d", seed, step, len(f.history), len(want))
			}
			for i, s := range f.history {
				if s.x != want[i].x || s.p != want[i].p {
					t.Fatalf("seed %d step %d: sample %d is (%g, %g), want (%g, %g)", seed, step, i, s.x, s.p, want[i].x, want[i].p)
				}
			}
			got, ref := f.Model(), refitFromScratch(f)
			if math.Float64bits(got.Scale) != math.Float64bits(ref.Scale) ||
				math.Float64bits(got.Exp) != math.Float64bits(ref.Exp) ||
				math.Float64bits(got.Static) != math.Float64bits(ref.Static) {
				t.Fatalf("seed %d step %d: model %v from stored logs, %v recomputed", seed, step, got, ref)
			}
		}
	}
}

// Observe is called per core per epoch: in steady state it must not
// allocate.
func TestFitterObserveDoesNotAllocate(t *testing.T) {
	f := NewCoreFitter(0.5, 4.0)
	xs := []float64{1, 0.8, 0.6, 0.5, 0.8}
	for _, x := range xs {
		f.Observe(x, 3)
	}
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		f.Observe(xs[i%len(xs)], 3+float64(i%7))
		i++
	}); avg != 0 {
		t.Errorf("Observe allocates %.1f objects per call, want 0", avg)
	}
}
