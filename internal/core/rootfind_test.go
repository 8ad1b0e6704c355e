package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/qmodel"
)

// randomInputs draws one solver scenario, biased toward the places the
// inner root-find can go wrong: per-core dilation bounds from 1 (both
// clamps coincide) to 1e15 (dLo falls to dFloor), think times from
// memory-bound to CPU-bound so that cores sit on either clamp at the
// solution, several memory controllers, and budgets hugging the
// all-floors power and the peak.
func randomInputs(rng *rand.Rand) *Inputs {
	n := 2 + rng.Intn(39)
	cores := make([]power.Model, n)
	zbar := make([]float64, n)
	c := make([]float64, n)
	for i := range cores {
		cores[i] = power.Model{
			Scale:  0.5 + 6*rng.Float64(),
			Exp:    1.5 + 2*rng.Float64(),
			Static: 0.1 + 0.8*rng.Float64(),
		}
		switch rng.Intn(4) {
		case 0:
			zbar[i] = 5 + 45*rng.Float64()
		case 1:
			zbar[i] = 1e4 + 9e4*rng.Float64()
		default:
			zbar[i] = 50 + 5000*rng.Float64()
		}
		c[i] = 12 * rng.Float64()
	}
	sys := power.System{
		Cores: cores,
		Mem:   power.Model{Scale: 10 + 30*rng.Float64(), Exp: 0.8 + 0.4*rng.Float64(), Static: 5 + 10*rng.Float64()},
		Ps:    5 + 15*rng.Float64(),
	}
	mc := &qmodel.Multi{}
	k := 1 + rng.Intn(3)
	for j := 0; j < k; j++ {
		mc.Stats = append(mc.Stats, qmodel.MemStats{Q: 1 + 4*rng.Float64(), U: 1 + 3*rng.Float64(), Sm: 15 + 30*rng.Float64()})
	}
	for i := 0; i < n; i++ {
		row := make([]float64, k)
		row[rng.Intn(k)] = 1
		mc.Access = append(mc.Access, row)
	}
	const sbBar = 5.0
	in := &Inputs{
		ZBar:         zbar,
		C:            c,
		Power:        sys,
		Response:     func(i int, sb float64) float64 { return mc.CoreResponse(i, sb) },
		SbBar:        sbBar,
		SbCandidates: SbCandidatesFromLadder(sbBar, dvfs.DefaultMemLadder()),
	}
	if rng.Intn(4) == 0 {
		in.SbCandidates = in.SbCandidates[:1+rng.Intn(len(in.SbCandidates))]
	}
	switch rng.Intn(3) {
	case 0:
		in.MaxZRatios = equalRatios(n, 1.2+4*rng.Float64())
	case 1:
		in.MaxZRatios = make([]float64, n)
		for i := range in.MaxZRatios {
			in.MaxZRatios[i] = []float64{1, 1.05, 2, 3.3, 8}[rng.Intn(5)]
		}
	default:
		in.MaxZRatios = make([]float64, n)
		for i := range in.MaxZRatios {
			in.MaxZRatios[i] = 1.5 + 3*rng.Float64()
		}
		in.MaxZRatios[rng.Intn(n)] = 1e15 // z_max so large that dLo < dFloor
	}
	floors := sys.Ps + sys.Mem.At(sbBar/in.SbCandidates[len(in.SbCandidates)-1])
	for i, m := range cores {
		floors += m.At(1 / in.MaxZRatios[i])
	}
	switch rng.Intn(5) {
	case 0:
		in.Budget = floors * (1 + math.Pow(10, -1-5*rng.Float64()))
	case 1:
		in.Budget = sys.Peak() * (1 - math.Pow(10, -1-8*rng.Float64()))
	case 2:
		in.Budget = floors * (0.5 + 0.5*rng.Float64()) // infeasible
	default:
		in.Budget = floors + (sys.Peak()*1.02-floors)*rng.Float64()
	}
	return in
}

// refPower is a budget constraint's left-hand side written the plain
// way — Eq. 8 per core through zOfD, the power model through math.Pow —
// sharing nothing with the solver's fused sweep. cores == nil is the
// global constraint: every core plus memory and P_s.
func refPower(in *Inputs, cores []int, sb, d float64) float64 {
	p := 0.0
	if cores == nil {
		p = in.Power.Ps + in.Power.Mem.At(in.SbBar/sb)
		for i := range in.ZBar {
			cores = append(cores, i)
		}
	}
	for _, i := range cores {
		z := zOfD(in.ZBar[i], in.C[i], in.Response(i, in.SbBar), in.Response(i, sb), d, in.MaxZRatios[i])
		p += in.Power.Cores[i].At(in.ZBar[i] / z)
	}
	return p
}

// refSolve is the oracle for the inner solve: per candidate and per
// constraint a plain bisection of refPower to the last bit, the minimum
// over the constraints, then a scan in betterThan order.
func refSolve(in *Inputs, groups []BudgetGroup) (sol dSolution, idx int) {
	idx = -1
	for k, sb := range in.SbCandidates {
		dHi, dLo := math.Inf(1), math.Inf(1)
		for i := range in.ZBar {
			a := in.ZBar[i] + in.C[i] + in.Response(i, in.SbBar)
			b := in.C[i] + in.Response(i, sb)
			dHi = math.Min(dHi, a/(in.ZBar[i]+b))
			dLo = math.Min(dLo, a/(in.ZBar[i]*in.MaxZRatios[i]+b))
		}
		dLo = math.Max(dLo, dFloor)
		// largest D on [dLo, dHi] that keeps the listed cores within budget
		constraint := func(cores []int, budget float64) (float64, bool) {
			if refPower(in, cores, sb, dHi) <= budget+budgetTol {
				return dHi, true
			}
			if refPower(in, cores, sb, dLo) > budget+budgetTol {
				return dLo, false
			}
			lo, hi := dLo, dHi
			for {
				mid := lo + 0.5*(hi-lo)
				if mid == lo || mid == hi {
					return lo, true
				}
				if refPower(in, cores, sb, mid) > budget {
					hi = mid
				} else {
					lo = mid
				}
			}
		}
		cand := dSolution{}
		cand.d, cand.feasible = constraint(nil, in.Budget)
		for _, g := range groups {
			d, ok := constraint(g.Cores, g.Budget)
			cand.d, cand.feasible = math.Min(cand.d, d), cand.feasible && ok
		}
		cand.pw = refPower(in, nil, sb, cand.d)
		if idx < 0 || betterThan(cand, sol) {
			sol, idx = cand, k
		}
	}
	return sol, idx
}

// sameAsOracle checks one solver answer against the oracle's. D is
// pinned by a budget equality only up to budgetTol over the local slope,
// so where the power curve is flat to within the tolerance between the
// two answers they count as equal.
func sameAsOracle(t *testing.T, label string, in *Inputs, got Result, ref dSolution, refIdx int) {
	t.Helper()
	if got.SbIndex != refIdx || got.Feasible != ref.feasible {
		t.Fatalf("%s chose candidate %d (feasible %v), oracle %d (feasible %v)",
			label, got.SbIndex, got.Feasible, refIdx, ref.feasible)
	}
	repower := refPower(in, nil, got.Sb, got.D)
	if math.Abs(got.D-ref.d) > 1e-9 && math.Abs(repower-ref.pw) > 2*budgetTol {
		t.Fatalf("%s D=%.15g, oracle D=%.15g", label, got.D, ref.d)
	}
	if got.Feasible && got.PredictedPower > in.Budget+budgetTol {
		t.Fatalf("%s predicts %.12g W over the %.12g W budget", label, got.PredictedPower, in.Budget)
	}
	if math.Abs(got.PredictedPower-repower) > 1e-9 {
		t.Fatalf("%s PredictedPower %.12g, recomputed %.12g", label, got.PredictedPower, repower)
	}
}

// Differential property: Algorithm 1 with the derivative-guided inner
// solve, its exhaustive scan, and the bisection oracle agree on the
// winning candidate and on D, and the returned point honours the budget
// contract.
func TestSolveMatchesBisectionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20160417))
	var warm Solver // long-lived, as the policies hold one
	for k := 0; k < 1500; k++ {
		in := randomInputs(rng)
		ref, refIdx := refSolve(in, nil)
		exh, err := new(Solver).SolveExhaustive(in)
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		bin, err := warm.Solve(in)
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		sameAsOracle(t, fmt.Sprintf("case %d: SolveExhaustive", k), in, exh, ref, refIdx)
		sameAsOracle(t, fmt.Sprintf("case %d: Solve", k), in, bin, ref, refIdx)
	}
}

// The per-group constraints go through the same root-find: random
// disjoint groups with budgets from hopeless to slack against the oracle.
func TestSolveGroupedMatchesBisectionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20160420))
	var s Solver
	for k := 0; k < 400; k++ {
		gi := &GroupedInputs{Inputs: *randomInputs(rng)}
		perm := rng.Perm(len(gi.ZBar))
		for len(perm) >= 2 && len(gi.Groups) < 3 {
			size := 1 + rng.Intn(len(perm)/2)
			g := BudgetGroup{Cores: perm[:size]}
			perm = perm[size:]
			var floor, peak float64
			for _, i := range g.Cores {
				floor += gi.Power.Cores[i].At(1 / gi.MaxZRatios[i])
				peak += gi.Power.Cores[i].Peak()
			}
			g.Budget = floor*0.9 + (peak*1.1-floor*0.9)*rng.Float64()
			gi.Groups = append(gi.Groups, g)
		}
		ref, refIdx := refSolve(&gi.Inputs, gi.Groups)
		got, err := s.SolveGrouped(gi)
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		sameAsOracle(t, fmt.Sprintf("case %d: SolveGrouped", k), &gi.Inputs, got, ref, refIdx)
	}
}

// SolveNumeric is the third, fully independent reference: it needs a
// strictly interior starting point (so the random rows keep to one
// shared dilation bound — the mixed draws contain ratio 1, where the box
// has no interior — and redraw the budget away from the floors) and
// treats s_b as continuous, so it can sit slightly above Algorithm 1 and
// must not sit substantially below it. The last row is a big.LITTLE
// machine: per-core bounds must reach the barrier solve itself, not be
// answered by a fall-back to Algorithm 1.
func TestSolveMatchesNumericOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(20160418))
	var rows []*Inputs
	for len(rows) < 8 {
		in := randomInputs(rng)
		if !oneSharedBound(in) || len(in.ZBar) > 12 || len(in.SbCandidates) < 2 {
			continue
		}
		in.Budget = (0.5 + 0.4*rng.Float64()) * in.Power.Peak()
		if alg, err := in.Solve(); err != nil {
			t.Fatal(err)
		} else if alg.Feasible {
			rows = append(rows, in)
		}
	}
	mixed := testInputs(16, 0.6)
	big, little := dvfs.DefaultCoreLadder().StepRange(), dvfs.EfficiencyCoreLadder().StepRange() // 1.82, 2.0
	for i := range mixed.MaxZRatios {
		mixed.MaxZRatios[i] = little
		if i < 4 {
			mixed.MaxZRatios[i] = big
		}
	}
	rows = append(rows, mixed)
	for k, in := range rows {
		alg, err := new(Solver).SolveExhaustive(in)
		if err != nil {
			t.Fatal(err)
		}
		num, err := in.SolveNumeric(DefaultNumericOptions())
		if err != nil {
			t.Fatalf("row %d: numeric: %v", k, err)
		}
		if num.Evals != 0 {
			t.Errorf("row %d: SolveNumeric returned an Algorithm 1 result (%d probes), not its own barrier solve", k, num.Evals)
		}
		if gap := (alg.D - num.D) / alg.D; gap > 0.02 {
			t.Errorf("row %d: numeric D=%.6f vs Algorithm 1 D=%.6f (gap %.2f%%)", k, num.D, alg.D, gap*100)
		}
	}
}

// oneSharedBound reports whether every core has the same dilation bound.
func oneSharedBound(in *Inputs) bool {
	for _, r := range in.MaxZRatios {
		if r != in.MaxZRatios[0] {
			return false
		}
	}
	return true
}

// The regression gate for the inner solve's cost that needs no clock:
// power sweeps per probed candidate, end points included.
func TestSweepsPerCandidate(t *testing.T) {
	for _, n := range []int{16, 64} {
		var s Solver
		res, err := s.SolveExhaustive(testInputs(n, 0.6))
		if err != nil {
			t.Fatal(err)
		}
		if per := float64(s.sweeps) / float64(res.Evals); per > 6 {
			t.Errorf("n=%d: %.2f sweeps per candidate, want ≤ 6", n, per)
		}
	}
	// Never more than the iteration bound plus the two end points, however
	// the clamps and the budget fall.
	rng := rand.New(rand.NewSource(20160419))
	for k := 0; k < 1500; k++ {
		in := randomInputs(rng)
		var s Solver
		s.prepare(in)
		for i := range in.SbCandidates {
			before := s.sweeps
			s.solveForSb(in, i)
			if got := s.sweeps - before; got > dRootIters {
				t.Fatalf("case %d candidate %d: %d sweeps, bound %d", k, i, got, dRootIters)
			}
		}
	}
}
