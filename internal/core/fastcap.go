// Package core implements the FastCap optimizer (paper §III-B): the
// convex program of Eqs. 4–7 solved online in O(N·log M) by Algorithm 1.
//
// For a fixed memory bus transfer time s_b, Theorem 1 makes both
// constraints tight, so every core's think time follows from Eq. 8,
//
//	z_i = (z̄_i + c_i + R_i(s̄_b))/D − c_i − R_i(s_b),
//
// and the budget equality determines the single unknown D, found here by
// a bracketed, derivative-guided root-find on the monotone
// power-versus-D curve (Solver.solveBudget). A binary search over the M
// candidate bus times (D is unimodal in s_b for the convex program)
// yields the full solution.
//
// Times are nanoseconds, powers are watts, frequencies appear only as
// normalized scaling factors.
package core

import (
	"fmt"
	"math"

	"repro/internal/dvfs"
	"repro/internal/power"
)

// ResponseFunc returns the mean memory response time (ns) experienced by
// a given core at bus transfer time sb. With a single controller the
// response is the same for every core (Eq. 1); with multiple controllers
// it is the access-weighted mixture (§IV-B).
type ResponseFunc func(core int, sb float64) float64

// Inputs carries everything Algorithm 1 consumes for one invocation.
// Slices indexed by core must all have the same length N.
type Inputs struct {
	// ZBar[i] is core i's minimum think time (ns) at maximum frequency,
	// estimated from counters via Eq. 9.
	ZBar []float64
	// C[i] is core i's average L2 cache time per memory access (ns); the
	// L2 sits in a fixed voltage domain and does not scale (§III-A).
	C []float64
	// Power holds the fitted per-core and memory power models and the
	// frequency-independent system power P_s.
	Power power.System
	// Response evaluates R_i(s_b). It must be nondecreasing in sb.
	Response ResponseFunc
	// SbBar is the minimum bus transfer time (ns) at maximum memory
	// frequency; SbCandidates are the M selectable transfer times in
	// ascending order (highest frequency first). SbCandidates[0] is
	// normally SbBar itself.
	SbBar        float64
	SbCandidates []float64
	// Budget is the full-system cap in watts: B · P̄.
	Budget float64
	// MaxZRatios[i] bounds core i's think-time dilation:
	// z_i ≤ z̄_i·MaxZRatios[i], i.e. f_max/f_min of that core's own
	// ladder (every core class of a heterogeneous machine has its own).
	// len must equal len(ZBar) and every entry must be ≥ 1.
	MaxZRatios []float64
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate reports the first structural problem with the inputs, or nil.
// Every number the root-find consumes must be finite: a NaN counter
// compares false with everything, so it would pass the range checks and
// come back as a NaN frequency.
func (in *Inputs) Validate() error {
	n := len(in.ZBar)
	if n == 0 {
		return fmt.Errorf("fastcap: no cores")
	}
	if len(in.C) != n {
		return fmt.Errorf("fastcap: len(C)=%d, want %d", len(in.C), n)
	}
	if len(in.Power.Cores) != n {
		return fmt.Errorf("fastcap: %d core power models, want %d", len(in.Power.Cores), n)
	}
	for i := 0; i < n; i++ {
		if in.ZBar[i] <= 0 || !finite(in.ZBar[i]) {
			return fmt.Errorf("fastcap: core %d has non-positive or non-finite think time %g", i, in.ZBar[i])
		}
		if in.C[i] < 0 || !finite(in.C[i]) {
			return fmt.Errorf("fastcap: core %d has negative or non-finite cache time %g", i, in.C[i])
		}
		if !in.Power.Cores[i].Valid() {
			return fmt.Errorf("fastcap: core %d has invalid power model %v", i, in.Power.Cores[i])
		}
	}
	if !in.Power.Mem.Valid() {
		return fmt.Errorf("fastcap: invalid memory power model %v", in.Power.Mem)
	}
	if !finite(in.Power.Ps) {
		return fmt.Errorf("fastcap: non-finite system power %g", in.Power.Ps)
	}
	if in.SbBar <= 0 || !finite(in.SbBar) {
		return fmt.Errorf("fastcap: non-positive or non-finite SbBar %g", in.SbBar)
	}
	if len(in.SbCandidates) == 0 {
		return fmt.Errorf("fastcap: no bus time candidates")
	}
	for i, sb := range in.SbCandidates {
		if !finite(sb) {
			return fmt.Errorf("fastcap: candidate %d is non-finite (%g)", i, sb)
		}
		if sb < in.SbBar-1e-9 {
			return fmt.Errorf("fastcap: candidate %d (%g) below SbBar %g", i, sb, in.SbBar)
		}
		if i > 0 && sb <= in.SbCandidates[i-1] {
			return fmt.Errorf("fastcap: candidates not strictly ascending at %d", i)
		}
	}
	if len(in.MaxZRatios) != n {
		return fmt.Errorf("fastcap: len(MaxZRatios)=%d, want %d", len(in.MaxZRatios), n)
	}
	for i, r := range in.MaxZRatios {
		if math.IsNaN(r) || r < 1 {
			return fmt.Errorf("fastcap: MaxZRatios[%d] = %g < 1", i, r)
		}
	}
	if in.Budget <= 0 || !finite(in.Budget) {
		return fmt.Errorf("fastcap: non-positive or non-finite budget %g", in.Budget)
	}
	if in.Response == nil {
		return fmt.Errorf("fastcap: nil Response")
	}
	return nil
}

// Result is the continuous solution of the FastCap program, before
// quantization onto the hardware DVFS ladders.
type Result struct {
	// D is the achieved objective: every application runs at fraction D
	// of its best-case performance (1/D is the common slowdown bound).
	D float64
	// Z[i] is core i's selected think time (ns); the normalized core
	// frequency is ZBar[i]/Z[i].
	Z []float64
	// Sb is the selected bus transfer time and SbIndex its position in
	// SbCandidates; the normalized memory frequency is SbBar/Sb.
	Sb      float64
	SbIndex int
	// PredictedPower is the model-predicted full-system power at the
	// solution; by Theorem 1 it equals the budget whenever the budget
	// binds and the solution is interior.
	PredictedPower float64
	// Feasible is false when even the lowest frequencies exceed the
	// budget; the result then carries the minimum-power configuration.
	Feasible bool
	// Evals counts inner D-solves performed, exposed so complexity tests
	// can verify the O(log M) outer search.
	Evals int
}

// dSolution is the inner solve for one candidate sb. Think times are
// not materialized here — only the winning candidate's z vector is
// computed, once, when the outer search finishes.
type dSolution struct {
	d        float64
	pw       float64
	feasible bool
}

const (
	dRootIters = 48    // max root-find steps for the budget equality
	budgetTol  = 1e-9  // watts tolerance on budget equality
	dFloor     = 1e-12 // numeric floor for the objective
)

// zOfD evaluates Eq. 8 with clamping to the realizable think-time range.
func zOfD(zBar, c, rMin, r, d, maxZRatio float64) float64 {
	z := (zBar+c+rMin)/d - c - r
	if z < zBar {
		return zBar
	}
	if zMax := zBar * maxZRatio; z > zMax {
		return zMax
	}
	return z
}

// coreTerm is one core's share of the budget equality in the form the
// power sweep consumes: Eq. 8 reads z = a/D − b with a = z̄+c+R(s̄_b)
// fixed per Solve and b = c+R(s_b) fixed per candidate, and a core
// clamped at either end of its ladder contributes a constant.
type coreTerm struct {
	a, b        float64
	zBar, zMax  float64 // realizable think-time range [z̄, z̄·maxZ]
	peak, floor float64 // power at z̄ (x = 1) and at z_max
	m           power.Model
}

// Solver carries reusable scratch for Solve/SolveExhaustive/SolveGrouped/
// Quantize so repeated invocations (one per epoch per policy) allocate
// only the result slices that escape to the caller. The zero value is
// ready to use; a Solver must not be used concurrently.
type Solver struct {
	terms    []coreTerm // per-core sweep constants; b is the probed candidate's
	all      []int      // 0..N-1, the global constraint's core list
	dLo, dHi float64    // the probed candidate's D bracket
	sweeps   int        // power sweeps so far, for the cost tests

	sols   []dSolution // per-candidate memo
	probed []bool
	num    []float64      // quantization guard: per-core T_min numerators
	rCur   []float64      // quantization guard: R_i at the solved sb
	heap   []guardEntry   // quantization guard max-heap
	lads   []*dvfs.Ladder // Quantize: the shared ladder, once per core

	// Warm-start state: the winning candidate index of the previous
	// Solve/SolveExhaustive and the problem shape (N cores, M candidates)
	// it was solved under. A subsequent Solve with the same shape — the
	// steady-state case, where only the budget or the per-app profiles
	// moved — first probes warmIdx and its neighbors; if warmIdx still
	// strictly beats both, unimodality of the betterThan order over the
	// candidate index makes it the unique argmax and the bisection is
	// skipped entirely. Any shape change (warmN != N or warmM != M)
	// invalidates the hint and falls back to the cold path, as does a
	// failed neighbor test (the probes are memoized, so the cold
	// bisection reuses them). warmN == 0 marks "no previous solution".
	warmIdx int
	warmN   int
	warmM   int
}

// prepare sizes the scratch and fills the per-core constants that do not
// depend on the candidate, among them each core's floor power — the only
// place a Solve evaluates the power model outside the sweep.
func (s *Solver) prepare(in *Inputs) {
	n, m := len(in.ZBar), len(in.SbCandidates)
	if cap(s.terms) < n {
		s.terms = make([]coreTerm, n)
		s.all = make([]int, n)
		for i := range s.all {
			s.all[i] = i
		}
	}
	s.terms, s.all = s.terms[:n], s.all[:n]
	for i := range s.terms {
		zBar, pm := in.ZBar[i], in.Power.Cores[i]
		zMax := zBar * in.MaxZRatios[i]
		s.terms[i] = coreTerm{
			a:    zBar + in.C[i] + in.Response(i, in.SbBar),
			zBar: zBar, zMax: zMax,
			peak: pm.Peak(), floor: pm.At(zBar / zMax),
			m: pm,
		}
	}
	if cap(s.sols) < m {
		s.sols = make([]dSolution, m)
		s.probed = make([]bool, m)
	} else {
		s.sols = s.sols[:m]
		s.probed = s.probed[:m]
		for i := range s.probed {
			s.probed[i] = false
		}
	}
}

// growF resizes a float64 scratch slice, reusing capacity.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// setCandidate loads candidate sbIdx into the sweep constants and sets
// the D bracket every constraint at this bus time is solved on. At dHi
// the most constrained core reaches z̄, so no larger D satisfies its
// fairness constraint; at dLo the last core reaches its z_max, so the
// power there is the sum of the floor constants.
func (s *Solver) setCandidate(in *Inputs, sbIdx int) {
	sb := in.SbCandidates[sbIdx]
	dHi, dLo := math.Inf(1), math.Inf(1)
	for i := range s.terms {
		t := &s.terms[i]
		r := in.Response(i, sb)
		t.b = in.C[i] + r
		dHi = math.Min(dHi, t.a/(in.ZBar[i]+in.C[i]+r))
		dLo = math.Min(dLo, t.a/(t.zMax+in.C[i]+r))
	}
	s.dHi, s.dLo = dHi, math.Max(dLo, dFloor)
}

// sweep is the one O(N) pass of the inner solve: the summed power p of
// the listed cores at objective d, the part v of it that moves with d
// (the dynamic power of the unclamped cores), and dv = dp/d(ln d). A
// core clamped at z̄ or z_max adds its constant and no slope; an
// unclamped one has x = z̄/z strictly inside (0, 1) and
// d(ln x)/d(ln D) = a/(z·D), so the power kernel's log-slope gives the
// derivative without a second transcendental.
func (s *Solver) sweep(cores []int, d float64) (p, v, dv float64) {
	s.sweeps++
	for _, i := range cores {
		t := &s.terms[i]
		q := t.a / d
		z := q - t.b
		switch {
		case z <= t.zBar:
			p += t.peak
		case z >= t.zMax:
			p += t.floor
		default:
			w, slope := t.m.DynamicSlope(t.zBar / z)
			p += t.m.Static
			v += w
			dv += slope * q / z
		}
	}
	return p + v, v, dv
}

// solveBudget returns the largest D on the candidate's bracket at which
// the listed cores plus the constant base draw at most budget: the
// budget equality of Theorem 1 when it binds. feasible is false when
// even dLo exceeds the budget.
//
// power(D) is nondecreasing and piecewise smooth (one kink per clamp),
// and between kinks its moving part v is close to a power law in D. The
// root is therefore found by Newton steps in log-log coordinates — from
// the last evaluated point x, D' = x·(v'/v)^(v/dv) reaches the moving
// power v' the budget leaves room for, exactly so for a true power law —
// kept strictly inside a maintained bracket [lo, hi] with power(lo) ≤
// budget < power(hi), and replaced by the midpoint when they leave it,
// when nothing moves at x (every core clamped), or when the previous
// step failed to halve the residual. Steps aim half a budgetTol below
// the root so the iteration ends from below: the returned d has
// power(d) ≤ budget, and power(d) > budget − budgetTol unless the
// bracket collapsed or dRootIters ran out first. The starting point is
// dHi, a function of the constraint alone — never of earlier candidates
// or epochs — so a warm Solve and a cold one return the same bits.
func (s *Solver) solveBudget(cores []int, base, budget float64) dSolution {
	pHi, v, dv := s.sweep(cores, s.dHi)
	pHi += base
	if pHi <= budget+budgetTol {
		// Budget does not bind: run as fast as fairness allows.
		return dSolution{d: s.dHi, pw: pHi, feasible: true}
	}
	pLo := base
	if s.dLo > dFloor {
		for _, i := range cores {
			pLo += s.terms[i].floor
		}
	} else {
		// dLo was raised to dFloor: not every core is at its z_max there.
		p, _, _ := s.sweep(cores, s.dLo)
		pLo += p
	}
	if pLo > budget+budgetTol {
		// Even minimum frequencies blow the budget at this sb.
		return dSolution{d: s.dLo, pw: pLo, feasible: false}
	}

	lo, hi := s.dLo, s.dHi
	x, g := hi, pHi-budget // the last evaluated point and its residual
	halved := true
	for it := 0; it < dRootIters && pLo <= budget-budgetTol && hi-lo > 1e-13*hi; it++ {
		next := x * math.Pow(1-(g+0.5*budgetTol)/v, v/dv)
		if !halved || !(lo < next && next < hi) { // NaN when v is 0 or the whole of v must go
			next = 0.5 * (lo + hi)
		}
		var p float64
		p, v, dv = s.sweep(cores, next)
		p += base
		halved = math.Abs(p-budget) <= 0.5*math.Abs(g)
		x, g = next, p-budget
		if g > 0 {
			hi = x
		} else {
			lo, pLo = x, p
		}
	}
	return dSolution{d: lo, pw: pLo, feasible: true}
}

// solveForSb computes the optimal D for one fixed sb from the budget
// equality (Theorem 1). It does not allocate: the sweep constants live in
// the solver scratch and think times are materialized only for the
// winning candidate.
func (s *Solver) solveForSb(in *Inputs, sbIdx int) dSolution {
	s.setCandidate(in, sbIdx)
	return s.solveBudget(s.all, in.basePower(sbIdx), in.Budget)
}

// basePower is the part of full-system power that no core frequency
// moves at candidate sbIdx: P_s and the memory subsystem.
func (in *Inputs) basePower(sbIdx int) float64 {
	return in.Power.Ps + in.Power.Mem.At(in.SbBar/in.SbCandidates[sbIdx])
}

// finish materializes the winning candidate's think times into a fresh
// Result (the only per-Solve allocation that escapes).
func (s *Solver) finish(in *Inputs, best dSolution, bestIdx, evals int) Result {
	n := len(in.ZBar)
	sb := in.SbCandidates[bestIdx]
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		z[i] = zOfD(in.ZBar[i], in.C[i], in.Response(i, in.SbBar), in.Response(i, sb), best.d, in.MaxZRatios[i])
	}
	return Result{
		D:              best.d,
		Z:              z,
		Sb:             sb,
		SbIndex:        bestIdx,
		PredictedPower: best.pw,
		Feasible:       best.feasible,
		Evals:          evals,
	}
}

// Solve runs Algorithm 1: binary search over the M bus-time candidates,
// each probe solving D in O(N). The search key is the full betterThan
// order rather than D alone: infeasible candidates (memory frequency so
// high that even minimum core frequencies bust the budget) form a prefix
// of the candidate array over which predicted power decreases, so the
// combined order stays unimodal over the index. The deviation from the
// paper's literal pseudocode — comparing adjacent candidates and
// shrinking [l, r] rather than the three-way probe — is the standard
// unimodal-maximum bisection and avoids the non-progress corner case in
// the published listing; both perform O(log M) probes.
func (in *Inputs) Solve() (Result, error) {
	var s Solver
	return s.Solve(in)
}

// Solve runs Algorithm 1 using the solver's scratch buffers; see
// Inputs.Solve for the algorithm description.
func (s *Solver) Solve(in *Inputs) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	s.prepare(in)
	n, m := len(in.ZBar), len(in.SbCandidates)
	evals := 0
	probe := func(i int) dSolution {
		if s.probed[i] {
			return s.sols[i]
		}
		sol := s.solveForSb(in, i)
		s.probed[i] = true
		s.sols[i] = sol
		evals++
		return sol
	}

	// Warm start: in steady state the winning bus frequency rarely moves
	// between epochs. Probe the previous winner and its neighbors; if it
	// strictly beats both, the unimodal betterThan order makes it the
	// unique argmax — any other index j on the far side of a losing
	// neighbor orders no better than that neighbor — so the cold
	// bisection would return the same candidate and the same dSolution.
	// The Result is therefore byte-identical to the cold path's (only
	// Evals differs). A failed test falls through to the bisection, which
	// reuses the memoized probes.
	if s.warmN == n && s.warmM == m {
		w := s.warmIdx
		cw := probe(w)
		if (w == 0 || betterThan(cw, probe(w-1))) &&
			(w == m-1 || betterThan(cw, probe(w+1))) {
			s.warmIdx = w
			return s.finish(in, cw, w, evals), nil
		}
	}

	lo, hi := 0, m-1
	for hi-lo > 2 {
		mid := (lo + hi) / 2
		if betterThan(probe(mid+1), probe(mid)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best, bestIdx := probe(lo), lo
	for i := lo + 1; i <= hi; i++ {
		if sol := probe(i); betterThan(sol, best) {
			best, bestIdx = sol, i
		}
	}
	s.warmIdx, s.warmN, s.warmM = bestIdx, n, m
	return s.finish(in, best, bestIdx, evals), nil
}

// SolveExhaustive scans all M candidates using the solver's scratch. It
// is the reference the binary search is validated against and the
// building block for the CPU-only policy (single candidate) and for
// policies that must probe every memory frequency.
func (s *Solver) SolveExhaustive(in *Inputs) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	s.prepare(in)
	var best dSolution
	bestIdx := -1
	evals := 0
	for i := range in.SbCandidates {
		sol := s.solveForSb(in, i)
		evals++
		if bestIdx < 0 || betterThan(sol, best) {
			best, bestIdx = sol, i
		}
	}
	s.warmIdx, s.warmN, s.warmM = bestIdx, len(in.ZBar), len(in.SbCandidates)
	return s.finish(in, best, bestIdx, evals), nil
}

// betterThan orders candidate solutions: feasible beats infeasible; among
// infeasible, lower predicted power wins (closest budget violation);
// among feasible, larger D wins with ties broken toward lower power.
// Because infeasible candidates occupy a prefix of the (ascending)
// bus-time array over which minimum power strictly decreases, this order
// is unimodal in the candidate index, which is what Solve's bisection
// requires.
func betterThan(a, b dSolution) bool {
	if a.feasible != b.feasible {
		return a.feasible
	}
	if !a.feasible {
		return a.pw < b.pw
	}
	if a.d != b.d {
		return a.d > b.d
	}
	return a.pw < b.pw
}

// Assignment is the quantized outcome mapped onto hardware ladders.
type Assignment struct {
	CoreSteps []int // ladder step per core
	MemStep   int   // memory ladder step
	// PredictedPower re-evaluates the power models at the quantized
	// frequencies.
	PredictedPower float64
}

// guardEntry is one max-heap node of the quantization guard: a core and
// its performance ratio at the step it held when pushed. Entries whose
// step no longer matches the core's current step are stale and are
// discarded lazily on pop.
type guardEntry struct {
	ratio float64
	core  int32
	step  int32
}

// guardLess orders the shed heap: higher ratio first, ties broken
// toward the lower core index (matching the original linear argmax).
func guardLess(a, b guardEntry) bool {
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	return a.core < b.core
}

func (s *Solver) guardPush(e guardEntry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !guardLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *Solver) guardPop() guardEntry {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && guardLess(s.heap[l], s.heap[best]) {
			best = l
		}
		if r < last && guardLess(s.heap[r], s.heap[best]) {
			best = r
		}
		if best == i {
			break
		}
		s.heap[i], s.heap[best] = s.heap[best], s.heap[i]
		i = best
	}
	return top
}

// Quantize maps a continuous Result onto the DVFS ladders, rounding each
// normalized frequency to the nearest step (paper §III-B: "the closest
// to z_i/z̄_i after normalization").
//
// When guard is true and nearest-step rounding lands the predicted power
// above the budget, cores are stepped down one ladder notch at a time —
// always the core currently closest to its best-case performance, which
// preserves FastCap's fairness ordering — until the model predicts the
// budget is met (memory is stepped down only after every core reaches
// its floor).
//
// It is QuantizePerCore for a machine whose cores all share the ladder
// coreL: N equal ladders through the one per-core computation.
func (s *Solver) Quantize(in *Inputs, res Result, coreL, memL *dvfs.Ladder, guard bool) Assignment {
	n := len(res.Z)
	if cap(s.lads) < n {
		s.lads = make([]*dvfs.Ladder, n)
	}
	s.lads = s.lads[:n]
	for i := range s.lads {
		s.lads[i] = coreL
	}
	return s.QuantizePerCore(in, res, s.lads, memL, guard)
}

// QuantizePerCore maps a continuous Result onto the DVFS ladders using
// the solver's scratch; coreLs[i] is core i's own ladder, so every
// quantized step lands on the ladder of the core it is applied to. The
// budget guard sheds the core closest to its best-case performance
// first, each candidate evaluated against its own ladder, and runs in
// O(N·log N + S·log N) for S shed steps: power is updated incrementally
// per step (instead of a full O(N) model re-evaluation) and the next
// core to shed comes from a max-heap keyed by performance ratio
// (instead of a linear argmax), with lazy deletion of stale entries.
func (s *Solver) QuantizePerCore(in *Inputs, res Result, coreLs []*dvfs.Ladder, memL *dvfs.Ladder, guard bool) Assignment {
	n := len(res.Z)
	steps := make([]int, n)
	for i := 0; i < n; i++ {
		steps[i] = coreLs[i].NearestNorm(in.ZBar[i] / res.Z[i])
	}
	memStep := memL.NearestNorm(in.SbBar / res.Sb)

	pw := in.Power.Ps + in.Power.Mem.At(memL.NormFreq(memStep))
	for i := 0; i < n; i++ {
		pw += in.Power.Cores[i].At(coreLs[i].NormFreq(steps[i]))
	}
	if !guard || pw <= in.Budget {
		return Assignment{CoreSteps: steps, MemStep: memStep, PredictedPower: pw}
	}

	// Per-core constants of the performance ratio
	// D_i(step) = (z̄_i + c_i + R_i(s̄_b)) / (z̄_i·f_max/f(step) + c_i + R_i(s_b)).
	s.num = growF(s.num, n)
	s.rCur = growF(s.rCur, n)
	sbCur := in.SbCandidates[res.SbIndex]
	for i := 0; i < n; i++ {
		s.num[i] = in.ZBar[i] + in.C[i] + in.Response(i, in.SbBar)
		s.rCur[i] = in.Response(i, sbCur)
	}
	ratioAt := func(i, step int) float64 {
		z := in.ZBar[i] * coreLs[i].Max() / coreLs[i].Freq(step)
		return s.num[i] / (z + in.C[i] + s.rCur[i])
	}
	s.heap = s.heap[:0]
	for i := 0; i < n; i++ {
		if steps[i] > 0 {
			s.guardPush(guardEntry{ratio: ratioAt(i, steps[i]), core: int32(i), step: int32(steps[i])})
		}
	}

	for pw > in.Budget {
		// Next live shed candidate: lazily discard entries whose step is
		// out of date.
		shed := -1
		for len(s.heap) > 0 {
			e := s.guardPop()
			if int(e.step) == steps[e.core] {
				shed = int(e.core)
				break
			}
		}
		if shed < 0 {
			if memStep > 0 {
				pw -= in.Power.Mem.At(memL.NormFreq(memStep))
				memStep--
				pw += in.Power.Mem.At(memL.NormFreq(memStep))
				continue
			}
			break // everything at the floor; nothing more to shed
		}
		pw -= in.Power.Cores[shed].At(coreLs[shed].NormFreq(steps[shed]))
		steps[shed]--
		pw += in.Power.Cores[shed].At(coreLs[shed].NormFreq(steps[shed]))
		if steps[shed] > 0 {
			s.guardPush(guardEntry{ratio: ratioAt(shed, steps[shed]), core: int32(shed), step: int32(steps[shed])})
		}
	}
	return Assignment{CoreSteps: steps, MemStep: memStep, PredictedPower: pw}
}

// SbCandidatesFromLadder derives the M candidate bus transfer times from
// a memory ladder: sbBar·(f_max/f_m), returned ascending in time
// (descending in frequency) as Inputs.SbCandidates expects.
func SbCandidatesFromLadder(sbBar float64, memL *dvfs.Ladder) []float64 {
	return AppendSbCandidates(nil, sbBar, memL)
}

// AppendSbCandidates is the allocation-conscious form of
// SbCandidatesFromLadder: it appends the candidates to dst (usually a
// reused buffer truncated to length zero) and returns the result.
func AppendSbCandidates(dst []float64, sbBar float64, memL *dvfs.Ladder) []float64 {
	m := memL.Len()
	for i := 0; i < m; i++ {
		dst = append(dst, sbBar*memL.Max()/memL.Freq(m-1-i))
	}
	return dst
}
