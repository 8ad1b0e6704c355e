package policy

import (
	"fmt"

	"repro/internal/core"
)

// GroupedFastCap runs the FastCap optimization with additional
// per-processor (socket / voltage-island) power budgets — the extension
// the paper sketches in §III-B ("it can be extended to capture
// per-processor power budgets by adding a constraint similar to
// constraint 6 for each processor"). Each group's cores may jointly draw
// at most the group budget, on top of the global cap.
type GroupedFastCap struct {
	Guard  bool
	Groups []core.BudgetGroup

	sc solveScratch
}

// NewGroupedFastCap builds the policy for the given socket budgets.
func NewGroupedFastCap(groups []core.BudgetGroup) *GroupedFastCap {
	return &GroupedFastCap{Guard: true, Groups: groups}
}

// Name implements Policy.
func (p *GroupedFastCap) Name() string {
	return fmt.Sprintf("FastCap-%dgroups", len(p.Groups))
}

// Decide implements Policy.
func (p *GroupedFastCap) Decide(s *Snapshot) (Decision, error) {
	if err := s.Validate(); err != nil {
		return Decision{}, err
	}
	p.sc.cands = core.AppendSbCandidates(p.sc.cands[:0], s.SbBar, s.MemLadder)
	gi := core.GroupedInputs{Inputs: *p.sc.load(s, p.sc.cands), Groups: p.Groups}
	res, err := p.sc.solver.SolveGrouped(&gi)
	if err != nil {
		return Decision{}, err
	}
	a := p.sc.quantize(s, &gi.Inputs, res, p.Guard)
	if p.Guard {
		p.enforceGroups(s, a.CoreSteps)
	}
	return Decision{CoreSteps: a.CoreSteps, MemStep: a.MemStep}, nil
}

// enforceGroups extends the quantization guard to the group budgets:
// while a group's predicted core power exceeds its budget, step down its
// currently-fastest member.
func (p *GroupedFastCap) enforceGroups(s *Snapshot, steps []int) {
	for _, g := range p.Groups {
		power := func() float64 {
			sum := 0.0
			for _, i := range g.Cores {
				sum += s.Power.Cores[i].At(s.ladder(i).NormFreq(steps[i]))
			}
			return sum
		}
		for power() > g.Budget {
			best := -1
			for _, i := range g.Cores {
				if steps[i] > 0 && (best < 0 || steps[i] > steps[best]) {
					best = i
				}
			}
			if best < 0 {
				break // whole group at the floor
			}
			steps[best]--
		}
	}
}
