// Package policy implements the power-capping policies compared in the
// FastCap paper's evaluation (§IV-B): FastCap itself plus CPU-only,
// Freq-Par (control-theoretic, [22]), Eql-Pwr (equal power shares, [16]),
// Eql-Freq (uniform frequency, [42]), and MaxBIPS (exhaustive throughput
// maximization, [14]) — the latter three extended, as in the paper, with
// FastCap's ability to manage memory DVFS.
//
// Every policy consumes the same per-epoch Snapshot of counters and
// fitted power models and returns DVFS ladder steps for all cores and
// the memory subsystem.
package policy

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/qmodel"
)

// Snapshot is the per-epoch controller input, assembled by the
// runner.Session from profiling-phase counters and online model
// fitting. The Session owns one reusable snapshot buffer per run and
// refills it every epoch: a snapshot (and its slices) is only valid
// for the duration of the Decide call it is passed to, so policies
// retaining per-epoch data must copy it.
type Snapshot struct {
	// ZBar[i] is core i's minimum think time estimate (Eq. 9), ns.
	ZBar []float64
	// C[i] is the L2 time per access, ns.
	C []float64
	// IPA[i] is instructions per memory access (throughput prediction).
	IPA []float64
	// Power carries the fitted per-core/memory models and Ps.
	Power power.System
	// MemStats holds per-controller Eq. 1 queue statistics.
	MemStats []qmodel.MemStats
	// AccessProb[i][k] is core i's probability of using controller k.
	AccessProb [][]float64
	// SbBar is the minimum bus transfer time, ns.
	SbBar float64
	// Ladders. CoreLadders[i] is core i's own ladder (all entries
	// non-nil); the runner always publishes this form. CoreLadder is
	// input shorthand for hand-built snapshots: with CoreLadders nil it
	// stands for N copies of that one ladder. Policies must go through
	// ladder(i) — never read either field directly — so the two forms
	// are the same machine and each core's steps land on its own ladder.
	CoreLadder  *dvfs.Ladder
	CoreLadders []*dvfs.Ladder
	MemLadder   *dvfs.Ladder
	// BudgetW is the full-system cap in watts.
	BudgetW float64
	// Measured powers from the profiling window (feedback policies).
	MeasuredCoreW []float64
	MeasuredMemW  float64
	// Current operating point.
	CurCoreSteps []int
	CurMemStep   int
}

// N returns the core count.
func (s *Snapshot) N() int { return len(s.ZBar) }

// Validate reports structural problems.
func (s *Snapshot) Validate() error {
	n := s.N()
	if n == 0 {
		return fmt.Errorf("policy: empty snapshot")
	}
	for _, l := range []int{len(s.C), len(s.IPA), len(s.Power.Cores), len(s.AccessProb), len(s.MeasuredCoreW), len(s.CurCoreSteps)} {
		if l != n {
			return fmt.Errorf("policy: inconsistent snapshot slice lengths")
		}
	}
	if len(s.MemStats) == 0 {
		return fmt.Errorf("policy: no controller stats")
	}
	if s.MemLadder == nil {
		return fmt.Errorf("policy: missing memory ladder")
	}
	if s.CoreLadders != nil {
		if len(s.CoreLadders) != n {
			return fmt.Errorf("policy: %d core ladders for %d cores", len(s.CoreLadders), n)
		}
		for i, l := range s.CoreLadders {
			if l == nil {
				return fmt.Errorf("policy: core %d has no ladder", i)
			}
		}
	} else if s.CoreLadder == nil {
		return fmt.Errorf("policy: missing core ladder")
	}
	if s.SbBar <= 0 || s.BudgetW <= 0 {
		return fmt.Errorf("policy: non-positive SbBar or budget")
	}
	return nil
}

// Decision is a full DVFS assignment.
type Decision struct {
	CoreSteps []int
	MemStep   int
}

// Policy is one capping algorithm. Implementations may keep internal
// scratch across Decide calls; a policy instance drives one run at a
// time and must not be shared between goroutines.
type Policy interface {
	Name() string
	Decide(s *Snapshot) (Decision, error)
}

// ladder returns core i's DVFS ladder: CoreLadders[i], or the
// CoreLadder shorthand when the per-core slice is not given.
func (s *Snapshot) ladder(i int) *dvfs.Ladder {
	if s.CoreLadders != nil {
		return s.CoreLadders[i]
	}
	return s.CoreLadder
}

// multi builds the weighted response model from the snapshot.
func (s *Snapshot) multi() *qmodel.Multi {
	return &qmodel.Multi{Stats: s.MemStats, Access: s.AccessProb}
}

// Inputs lifts the snapshot into the FastCap optimizer's inputs over
// every memory frequency — the lift the FastCap-family policies perform
// each Decide, for callers that drive core.Solver themselves (timing
// studies, benchmarks). The result aliases the snapshot's slices.
func (s *Snapshot) Inputs() *core.Inputs {
	var sc solveScratch
	return sc.load(s, core.SbCandidatesFromLadder(s.SbBar, s.MemLadder))
}

// sbForMemStep converts a memory ladder step to its bus transfer time.
func (s *Snapshot) sbForMemStep(step int) float64 {
	return s.SbBar * s.MemLadder.Max() / s.MemLadder.Freq(step)
}

// turnaround returns core i's mean turn-around time at a step of its
// own core ladder and bus transfer time sb.
func (s *Snapshot) turnaround(i, coreStep int, sb float64, mc *qmodel.Multi) float64 {
	lad := s.ladder(i)
	z := s.ZBar[i] * lad.Max() / lad.Freq(coreStep)
	return z + s.C[i] + mc.CoreResponse(i, sb)
}

// minTurnaround is core i's best-case (all-max) turn-around time.
func (s *Snapshot) minTurnaround(i int, mc *qmodel.Multi) float64 {
	return s.ZBar[i] + s.C[i] + mc.CoreResponse(i, s.SbBar)
}

// PredictPower evaluates the fitted models at a full assignment; each
// core's step is interpreted on that core's own ladder.
func (s *Snapshot) PredictPower(coreSteps []int, memStep int) float64 {
	p := s.Power.Ps + s.Power.Mem.At(s.MemLadder.NormFreq(memStep))
	for i, st := range coreSteps {
		p += s.Power.Cores[i].At(s.ladder(i).NormFreq(st))
	}
	return p
}

// objectiveD computes the fairness objective of an assignment: the worst
// (smallest) per-core ratio of best-case to achieved turn-around time.
func (s *Snapshot) objectiveD(coreSteps []int, memStep int, mc *qmodel.Multi) float64 {
	sb := s.sbForMemStep(memStep)
	d := math.Inf(1)
	for i := range coreSteps {
		ratio := s.minTurnaround(i, mc) / s.turnaround(i, coreSteps[i], sb, mc)
		if ratio < d {
			d = ratio
		}
	}
	return d
}

// predictBIPS estimates aggregate instruction throughput (instructions
// per ns) for an assignment, using the queuing model: each core retires
// IPA instructions per turn-around time.
func (s *Snapshot) predictBIPS(coreSteps []int, memStep int, mc *qmodel.Multi) float64 {
	sb := s.sbForMemStep(memStep)
	total := 0.0
	for i := range coreSteps {
		total += s.IPA[i] / s.turnaround(i, coreSteps[i], sb, mc)
	}
	return total
}
