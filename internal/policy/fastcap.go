package policy

import (
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/qmodel"
)

// solveScratch is the reusable state shared by the FastCap-family
// policies: the optimizer inputs, the weighted response model, the
// candidate buffer, the per-core ladders with their dilation bounds,
// and the solver scratch. One policy instance drives one run (epoch
// after epoch), so reusing these across Decide calls removes nearly all
// per-decision allocation. A policy instance must not be used from
// multiple goroutines.
type solveScratch struct {
	solver  core.Solver
	mc      qmodel.Multi
	in      core.Inputs
	cands   []float64
	ladders []*dvfs.Ladder
	zratios []float64
}

// load is the one lift from a Snapshot to optimizer inputs: it points
// them at the snapshot's slices (valid for the duration of one Decide
// call) with the given sb candidates (CPU-only passes just {SbBar}) and
// resolves every core's ladder and its f_max/f_min dilation bound.
func (sc *solveScratch) load(s *Snapshot, cands []float64) *core.Inputs {
	sc.mc.Stats = s.MemStats
	sc.mc.Access = s.AccessProb
	if sc.in.Response == nil {
		mc := &sc.mc
		sc.in.Response = func(i int, sb float64) float64 { return mc.CoreResponse(i, sb) }
	}
	sc.in.ZBar = s.ZBar
	sc.in.C = s.C
	sc.in.Power = s.Power
	sc.in.SbBar = s.SbBar
	sc.in.SbCandidates = cands
	sc.in.Budget = s.BudgetW
	sc.ladders, sc.zratios = sc.ladders[:0], sc.zratios[:0]
	for i := 0; i < s.N(); i++ {
		lad := s.ladder(i)
		sc.ladders = append(sc.ladders, lad)
		sc.zratios = append(sc.zratios, lad.StepRange())
	}
	sc.in.MaxZRatios = sc.zratios
	return &sc.in
}

// quantize maps the continuous solution of the loaded snapshot onto
// each core's own ladder.
func (sc *solveScratch) quantize(s *Snapshot, in *core.Inputs, res core.Result, guard bool) core.Assignment {
	return sc.solver.QuantizePerCore(in, res, sc.ladders, s.MemLadder, guard)
}

// FastCap is the paper's algorithm: the O(N·log M) joint core/memory
// optimizer of §III-B followed by ladder quantization.
type FastCap struct {
	// Guard enables the post-quantization budget guard: if nearest-step
	// rounding predicts over-budget, cores step down (best-performing
	// first) until the model predicts compliance.
	Guard bool
	// Exhaustive switches the outer s_b search from Algorithm 1's binary
	// search to a full scan over all M candidates (ablation).
	Exhaustive bool

	sc solveScratch
}

// NewFastCap returns the default configuration (guarded, binary search).
func NewFastCap() *FastCap { return &FastCap{Guard: true} }

// Name implements Policy.
func (f *FastCap) Name() string {
	if f.Exhaustive {
		return "FastCap-Exhaustive"
	}
	return "FastCap"
}

// Decide implements Policy.
func (f *FastCap) Decide(s *Snapshot) (Decision, error) {
	if err := s.Validate(); err != nil {
		return Decision{}, err
	}
	f.sc.cands = core.AppendSbCandidates(f.sc.cands[:0], s.SbBar, s.MemLadder)
	in := f.sc.load(s, f.sc.cands)
	var (
		res core.Result
		err error
	)
	if f.Exhaustive {
		res, err = f.sc.solver.SolveExhaustive(in)
	} else {
		res, err = f.sc.solver.Solve(in)
	}
	if err != nil {
		return Decision{}, err
	}
	a := f.sc.quantize(s, in, res, f.Guard)
	// Candidate index i corresponds to memory ladder step M-1-i; the
	// quantizer already produced the ladder step directly.
	return Decision{CoreSteps: a.CoreSteps, MemStep: a.MemStep}, nil
}

// CPUOnly runs the FastCap core optimization with the memory pinned at
// maximum frequency — the paper's "CPU-only" comparison isolating the
// value of memory DVFS. All earlier capping policies share this
// limitation.
type CPUOnly struct {
	Guard bool

	sc solveScratch
}

// NewCPUOnly returns the guarded CPU-only policy.
func NewCPUOnly() *CPUOnly { return &CPUOnly{Guard: true} }

// Name implements Policy.
func (p *CPUOnly) Name() string { return "CPU-only" }

// Decide implements Policy.
func (p *CPUOnly) Decide(s *Snapshot) (Decision, error) {
	if err := s.Validate(); err != nil {
		return Decision{}, err
	}
	p.sc.cands = append(p.sc.cands[:0], s.SbBar) // single candidate: memory at max
	in := p.sc.load(s, p.sc.cands)
	res, err := p.sc.solver.SolveExhaustive(in)
	if err != nil {
		return Decision{}, err
	}
	a := p.sc.quantize(s, in, res, p.Guard)
	return Decision{CoreSteps: a.CoreSteps, MemStep: s.MemLadder.MaxStep()}, nil
}
