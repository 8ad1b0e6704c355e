package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/qmodel"
)

// testInputs builds a representative 16-core scenario: a spread of
// CPU-bound (long think time) and memory-bound (short think time) cores
// against one memory controller, mirroring the paper's default setup.
func testInputs(n int, budgetFrac float64) *Inputs {
	stats := qmodel.MemStats{Q: 2.0, U: 1.5, Sm: 30}
	cores := make([]power.Model, n)
	zbar := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		cores[i] = power.Model{Scale: 4.0, Exp: 2.5, Static: 0.5}
		if i%2 == 0 {
			zbar[i] = 2000 // CPU-bound: long think time
		} else {
			zbar[i] = 120 // memory-bound: short think time
		}
		c[i] = 7.5
	}
	sys := power.System{
		Cores: cores,
		Mem:   power.Model{Scale: 26, Exp: 1.0, Static: 10},
		Ps:    12,
	}
	memL := dvfs.DefaultMemLadder()
	const sbBar = 5.0
	in := &Inputs{
		ZBar:         zbar,
		C:            c,
		Power:        sys,
		Response:     func(_ int, sb float64) float64 { return stats.Response(sb) },
		SbBar:        sbBar,
		SbCandidates: SbCandidatesFromLadder(sbBar, memL),
		Budget:       budgetFrac * sys.Peak(),
		MaxZRatios:   equalRatios(n, dvfs.DefaultCoreLadder().StepRange()),
	}
	return in
}

// equalRatios is the dilation bound of a machine whose n cores share
// one ladder.
func equalRatios(n int, r float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r
	}
	return out
}

func TestValidate(t *testing.T) {
	in := testInputs(4, 0.6)
	if err := in.Validate(); err != nil {
		t.Fatalf("valid inputs rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Inputs)
	}{
		{"no cores", func(i *Inputs) { i.ZBar = nil }},
		{"C length", func(i *Inputs) { i.C = i.C[:1] }},
		{"models length", func(i *Inputs) { i.Power.Cores = i.Power.Cores[:2] }},
		{"bad zbar", func(i *Inputs) { i.ZBar[0] = 0 }},
		{"negative cache", func(i *Inputs) { i.C[0] = -1 }},
		{"bad sbbar", func(i *Inputs) { i.SbBar = 0 }},
		{"no candidates", func(i *Inputs) { i.SbCandidates = nil }},
		{"candidate below sbbar", func(i *Inputs) { i.SbCandidates[0] = i.SbBar / 2 }},
		{"non-ascending candidates", func(i *Inputs) { i.SbCandidates[1] = i.SbCandidates[0] }},
		{"bad ratio", func(i *Inputs) { i.MaxZRatios[0] = 0.5 }},
		{"ratios length", func(i *Inputs) { i.MaxZRatios = i.MaxZRatios[:3] }},
		{"no ratios", func(i *Inputs) { i.MaxZRatios = nil }},
		{"bad budget", func(i *Inputs) { i.Budget = 0 }},
		{"nil response", func(i *Inputs) { i.Response = nil }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			in := testInputs(4, 0.6)
			m.mut(in)
			if err := in.Validate(); err == nil {
				t.Error("mutation accepted")
			}
		})
	}
}

// NaN compares false with everything and ±Inf passes one-sided range
// checks, so each numeric field needs its own finiteness check: a value
// that slips through reaches the root-find and comes back as a NaN
// frequency.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	fields := []struct {
		name string
		set  func(*Inputs, float64)
		vals []float64
	}{
		{"ZBar", func(i *Inputs, v float64) { i.ZBar[1] = v }, []float64{nan, inf, -inf}},
		{"C", func(i *Inputs, v float64) { i.C[1] = v }, []float64{nan, inf, -inf}},
		{"Budget", func(i *Inputs, v float64) { i.Budget = v }, []float64{nan, inf, -inf}},
		{"SbBar", func(i *Inputs, v float64) { i.SbBar = v }, []float64{nan, inf, -inf}},
		{"SbCandidates", func(i *Inputs, v float64) { i.SbCandidates[len(i.SbCandidates)-1] = v }, []float64{nan, inf}},
		{"MaxZRatios", func(i *Inputs, v float64) { i.MaxZRatios[1] = v }, []float64{nan}},
		{"core model Scale", func(i *Inputs, v float64) { i.Power.Cores[1].Scale = v }, []float64{nan, inf, -1}},
		{"core model Exp", func(i *Inputs, v float64) { i.Power.Cores[1].Exp = v }, []float64{nan, inf, 0}},
		{"core model Static", func(i *Inputs, v float64) { i.Power.Cores[1].Static = v }, []float64{nan, inf, -1}},
		{"memory model", func(i *Inputs, v float64) { i.Power.Mem.Scale = v }, []float64{nan, inf, -1}},
		{"Ps", func(i *Inputs, v float64) { i.Power.Ps = v }, []float64{nan, inf, -inf}},
	}
	for _, f := range fields {
		for _, v := range f.vals {
			in := testInputs(4, 0.6)
			f.set(in, v)
			err := in.Validate()
			if err == nil {
				t.Errorf("%s = %g accepted", f.name, v)
				continue
			}
			if !strings.HasPrefix(err.Error(), "fastcap: ") {
				t.Errorf("%s = %g: error %q lacks the fastcap: prefix", f.name, v, err)
			}
			if _, err := in.Solve(); err == nil {
				t.Errorf("%s = %g: Solve accepted what Validate rejects", f.name, v)
			}
		}
	}
}

func TestSbCandidatesFromLadder(t *testing.T) {
	memL := dvfs.DefaultMemLadder()
	sb := SbCandidatesFromLadder(5.0, memL)
	if len(sb) != memL.Len() {
		t.Fatalf("got %d candidates, want %d", len(sb), memL.Len())
	}
	if math.Abs(sb[0]-5.0) > 1e-9 {
		t.Errorf("fastest candidate = %g, want 5 (SbBar)", sb[0])
	}
	want := 5.0 * 0.8 / 0.2 // slowest: 200 MHz vs 800 MHz → 4×
	if math.Abs(sb[len(sb)-1]-want) > 1e-9 {
		t.Errorf("slowest candidate = %g, want %g", sb[len(sb)-1], want)
	}
	for i := 1; i < len(sb); i++ {
		if sb[i] <= sb[i-1] {
			t.Fatalf("candidates not ascending at %d", i)
		}
	}
}

// Theorem 1: at an interior optimum the budget constraint is an equality.
func TestTheorem1BudgetEquality(t *testing.T) {
	in := testInputs(16, 0.6)
	res, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible solution at 60% budget")
	}
	if math.Abs(res.PredictedPower-in.Budget)/in.Budget > 1e-6 {
		t.Errorf("budget not tight: predicted %g W vs budget %g W", res.PredictedPower, in.Budget)
	}
}

// Theorem 1: each core's turn-around ratio equals 1/D (unless clamped).
func TestTheorem1PerCoreEquality(t *testing.T) {
	in := testInputs(16, 0.6)
	res, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, z := range res.Z {
		rMin := in.Response(i, in.SbBar)
		r := in.Response(i, res.Sb)
		tMin := in.ZBar[i] + in.C[i] + rMin
		tGot := z + in.C[i] + r
		d := tMin / tGot
		clampedLow := math.Abs(z-in.ZBar[i]) < 1e-9
		clampedHigh := math.Abs(z-in.ZBar[i]*in.MaxZRatios[i]) < 1e-9
		if !clampedLow && !clampedHigh && math.Abs(d-res.D)/res.D > 1e-6 {
			t.Errorf("core %d ratio %g differs from D %g", i, d, res.D)
		}
		// The constraint itself must hold for every core regardless.
		if d < res.D-1e-6 {
			t.Errorf("core %d violates the fairness constraint: %g < D=%g", i, d, res.D)
		}
	}
}

func TestGenerousBudgetRunsMax(t *testing.T) {
	in := testInputs(8, 1.0)
	res, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.D-1.0) > 1e-9 {
		t.Errorf("D = %g, want 1.0 under a 100%% budget", res.D)
	}
	for i, z := range res.Z {
		if math.Abs(z-in.ZBar[i]) > 1e-9 {
			t.Errorf("core %d z = %g, want z̄ = %g", i, z, in.ZBar[i])
		}
	}
	if res.SbIndex != 0 {
		t.Errorf("memory not at max frequency: index %d", res.SbIndex)
	}
}

func TestInfeasibleBudget(t *testing.T) {
	in := testInputs(8, 0.6)
	// Budget below the static floor: nothing can satisfy it.
	floor := in.Power.Ps + in.Power.Mem.Static
	for _, m := range in.Power.Cores {
		floor += m.Static
	}
	in.Budget = floor * 0.5
	res, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("impossible budget reported feasible")
	}
	// Best effort: every core pinned to minimum frequency.
	for i, z := range res.Z {
		if math.Abs(z-in.ZBar[i]*in.MaxZRatios[i]) > 1e-6 {
			t.Errorf("core %d not at minimum frequency under infeasible budget", i)
		}
	}
}

func TestBinaryMatchesExhaustive(t *testing.T) {
	for _, frac := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		in := testInputs(16, frac)
		bin, err := in.Solve()
		if err != nil {
			t.Fatal(err)
		}
		exh, err := new(Solver).SolveExhaustive(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bin.D-exh.D)/exh.D > 1e-9 {
			t.Errorf("budget %g: binary D=%g != exhaustive D=%g (idx %d vs %d)",
				frac, bin.D, exh.D, bin.SbIndex, exh.SbIndex)
		}
	}
}

func TestBinarySearchIsLogM(t *testing.T) {
	in := testInputs(16, 0.6)
	res, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	m := len(in.SbCandidates)
	// Each halving costs ≤2 fresh probes plus the ≤3-wide final scan.
	maxEvals := 2*int(math.Ceil(math.Log2(float64(m)))) + 3
	if res.Evals > maxEvals {
		t.Errorf("binary search used %d evals for M=%d, want ≤ %d", res.Evals, m, maxEvals)
	}
	exh, _ := new(Solver).SolveExhaustive(in)
	if exh.Evals != m {
		t.Errorf("exhaustive evals = %d, want %d", exh.Evals, m)
	}
}

func TestMonotoneInBudget(t *testing.T) {
	prev := 0.0
	for _, frac := range []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		in := testInputs(16, frac)
		res, err := in.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.D < prev-1e-9 {
			t.Errorf("D decreased when budget rose to %g: %g < %g", frac, res.D, prev)
		}
		prev = res.D
	}
}

// Memory-bound mixes should pick a high memory frequency; CPU-bound mixes
// a low one (paper Figs. 7–8 narrative).
func TestWorkloadSteersMemoryFrequency(t *testing.T) {
	mk := func(zbar float64) *Inputs {
		in := testInputs(16, 0.6)
		for i := range in.ZBar {
			in.ZBar[i] = zbar
		}
		return in
	}
	memBound, err := mk(100).Solve() // short think → memory pressure
	if err != nil {
		t.Fatal(err)
	}
	cpuBound, err := mk(5000).Solve() // long think → CPU pressure
	if err != nil {
		t.Fatal(err)
	}
	if memBound.SbIndex >= cpuBound.SbIndex {
		t.Errorf("memory-bound chose sb index %d, CPU-bound %d; want mem-bound at faster memory",
			memBound.SbIndex, cpuBound.SbIndex)
	}
}

// Fairness: a heterogeneous mix must not create outliers — all unclamped
// cores share the same performance ratio even with very different power
// curves.
func TestFairnessAcrossHeterogeneousCores(t *testing.T) {
	in := testInputs(8, 0.55)
	for i := range in.Power.Cores {
		in.Power.Cores[i].Scale = 2.0 + float64(i)*0.7 // widely varying power
		in.Power.Cores[i].Exp = 2.0 + 0.1*float64(i%5)
	}
	res, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	var ratios []float64
	for i, z := range res.Z {
		if math.Abs(z-in.ZBar[i]) < 1e-9 || math.Abs(z-in.ZBar[i]*in.MaxZRatios[i]) < 1e-9 {
			continue // clamped cores may exceed D
		}
		rMin := in.Response(i, in.SbBar)
		r := in.Response(i, res.Sb)
		ratios = append(ratios, (in.ZBar[i]+in.C[i]+rMin)/(z+in.C[i]+r))
	}
	if len(ratios) < 2 {
		t.Skip("too few unclamped cores to compare")
	}
	for _, d := range ratios {
		if math.Abs(d-ratios[0])/ratios[0] > 1e-6 {
			t.Errorf("unequal performance ratios: %v", ratios)
			break
		}
	}
}

func TestQuantizeNearest(t *testing.T) {
	in := testInputs(8, 0.6)
	res, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	coreL, memL := dvfs.DefaultCoreLadder(), dvfs.DefaultMemLadder()
	a := new(Solver).Quantize(in, res, coreL, memL, false)
	if len(a.CoreSteps) != 8 {
		t.Fatalf("got %d steps", len(a.CoreSteps))
	}
	for i, s := range a.CoreSteps {
		if s < 0 || s >= coreL.Len() {
			t.Errorf("core %d step %d out of range", i, s)
		}
		// Nearest rounding: the chosen step's normalized frequency is the
		// closest to the continuous solution.
		want := coreL.NearestNorm(in.ZBar[i] / res.Z[i])
		if s != want {
			t.Errorf("core %d step = %d, want nearest %d", i, s, want)
		}
	}
	if a.MemStep < 0 || a.MemStep >= memL.Len() {
		t.Errorf("mem step %d out of range", a.MemStep)
	}
}

func TestQuantizeGuardEnforcesBudget(t *testing.T) {
	coreL, memL := dvfs.DefaultCoreLadder(), dvfs.DefaultMemLadder()
	for _, frac := range []float64{0.45, 0.55, 0.65, 0.75} {
		in := testInputs(16, frac)
		res, err := in.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible {
			continue
		}
		a := new(Solver).Quantize(in, res, coreL, memL, true)
		if a.PredictedPower > in.Budget+1e-9 {
			t.Errorf("budget %.0f%%: guarded quantization predicts %g W > budget %g W",
				frac*100, a.PredictedPower, in.Budget)
		}
	}
}

func TestQuantizeGuardFloorsOut(t *testing.T) {
	// A budget below the all-minimum-frequency power: the guard must stop
	// at the floor (all steps zero) rather than loop forever.
	in := testInputs(4, 0.6)
	in.Budget = 1 // 1 W: impossible
	res, _ := in.Solve()
	coreL, memL := dvfs.DefaultCoreLadder(), dvfs.DefaultMemLadder()
	a := new(Solver).Quantize(in, res, coreL, memL, true)
	for i, s := range a.CoreSteps {
		if s != 0 {
			t.Errorf("core %d step = %d, want 0 at impossible budget", i, s)
		}
	}
	if a.MemStep != 0 {
		t.Errorf("mem step = %d, want 0", a.MemStep)
	}
}

// Property: across random scenarios the binary search never loses more
// than a whisker to the exhaustive scan, the solution stays within
// bounds, and the fairness constraint holds for every core.
func TestSolveProperties(t *testing.T) {
	coreLadder := dvfs.DefaultCoreLadder()
	memL := dvfs.DefaultMemLadder()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		cores := make([]power.Model, n)
		zbar := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			cores[i] = power.Model{
				Scale:  1 + 5*rng.Float64(),
				Exp:    1.8 + 1.4*rng.Float64(),
				Static: 0.2 + 0.6*rng.Float64(),
			}
			zbar[i] = 50 + 5000*rng.Float64()
			c[i] = 2 + 10*rng.Float64()
		}
		stats := qmodel.MemStats{
			Q:  1 + 4*rng.Float64(),
			U:  1 + 3*rng.Float64(),
			Sm: 15 + 30*rng.Float64(),
		}
		sys := power.System{
			Cores: cores,
			Mem:   power.Model{Scale: 10 + 30*rng.Float64(), Exp: 0.8 + 0.4*rng.Float64(), Static: 5 + 10*rng.Float64()},
			Ps:    5 + 15*rng.Float64(),
		}
		const sbBar = 5.0
		in := &Inputs{
			ZBar:         zbar,
			C:            c,
			Power:        sys,
			Response:     func(_ int, sb float64) float64 { return stats.Response(sb) },
			SbBar:        sbBar,
			SbCandidates: SbCandidatesFromLadder(sbBar, memL),
			Budget:       (0.4 + 0.6*rng.Float64()) * sys.Peak(),
			MaxZRatios:   equalRatios(len(zbar), coreLadder.StepRange()),
		}
		bin, err := in.Solve()
		if err != nil {
			return false
		}
		exh, err := new(Solver).SolveExhaustive(in)
		if err != nil {
			return false
		}
		// Binary search must match the global optimum (convexity ⇒ unimodal).
		if exh.D-bin.D > 1e-7*exh.D {
			return false
		}
		if bin.D <= 0 || bin.D > 1+1e-9 {
			return false
		}
		// Fairness constraint for every core.
		for i, z := range bin.Z {
			if z < in.ZBar[i]-1e-9 || z > in.ZBar[i]*in.MaxZRatios[i]+1e-6 {
				return false
			}
			rMin := in.Response(i, in.SbBar)
			r := in.Response(i, bin.Sb)
			d := (in.ZBar[i] + in.C[i] + rMin) / (z + in.C[i] + r)
			if d < bin.D-1e-6 {
				return false
			}
		}
		// Feasible solutions respect the budget (within bisection slack).
		if bin.Feasible && bin.PredictedPower > in.Budget*(1+1e-6) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The think-time clamp function is the optimizer's hot inner loop; pin
// its behaviour down directly.
func TestZOfD(t *testing.T) {
	const zbar, c, rMin, r, ratio = 100.0, 10.0, 40.0, 60.0, 2.0
	// D = 1 with r > rMin would need z < zbar → clamps to zbar.
	if got := zOfD(zbar, c, rMin, r, 1.0, ratio); got != zbar {
		t.Errorf("zOfD at D=1 = %g, want clamp to %g", got, zbar)
	}
	// Tiny D → enormous z → clamps at zbar·ratio.
	if got := zOfD(zbar, c, rMin, r, 0.01, ratio); got != zbar*ratio {
		t.Errorf("zOfD at D=0.01 = %g, want clamp to %g", got, zbar*ratio)
	}
	// Interior: Eq. 8 exactly (D chosen so z lands in (z̄, z̄·ratio)).
	d := 0.7
	want := (zbar+c+rMin)/d - c - r
	if got := zOfD(zbar, c, rMin, r, d, ratio); math.Abs(got-want) > 1e-12 {
		t.Errorf("zOfD interior = %g, want %g", got, want)
	}
}

func TestMultiControllerResponses(t *testing.T) {
	// Two controllers with very different loads; cores pinned to each.
	statsCold := qmodel.MemStats{Q: 1.1, U: 1.0, Sm: 20}
	statsHot := qmodel.MemStats{Q: 4.0, U: 3.0, Sm: 40}
	mc := &qmodel.Multi{
		Stats:  []qmodel.MemStats{statsCold, statsHot},
		Access: [][]float64{{1, 0}, {0, 1}, {0.5, 0.5}, {0.5, 0.5}},
	}
	in := testInputs(4, 0.6)
	in.Response = func(i int, sb float64) float64 { return mc.CoreResponse(i, sb) }
	res, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	// All cores still satisfy the common fairness bound with their own R_i.
	for i, z := range res.Z {
		rMin := in.Response(i, in.SbBar)
		r := in.Response(i, res.Sb)
		d := (in.ZBar[i] + in.C[i] + rMin) / (z + in.C[i] + r)
		if d < res.D-1e-6 {
			t.Errorf("core %d violates fairness with multi-controller R", i)
		}
	}
}

func BenchmarkSolve16(b *testing.B)  { benchSolve(b, 16) }
func BenchmarkSolve32(b *testing.B)  { benchSolve(b, 32) }
func BenchmarkSolve64(b *testing.B)  { benchSolve(b, 64) }
func BenchmarkSolve256(b *testing.B) { benchSolve(b, 256) }

func benchSolve(b *testing.B, n int) {
	in := testInputs(n, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
