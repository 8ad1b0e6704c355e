package core

import "fmt"

// BudgetGroup is a per-processor (socket/voltage-island) power budget:
// the cores in Cores may jointly draw at most Budget watts. The paper's
// §III-B notes the optimization "can be extended to capture
// per-processor power budgets by adding a constraint similar to
// constraint 6 for each processor"; this implements that extension.
type BudgetGroup struct {
	Cores  []int
	Budget float64
}

// validateGroups checks group shape against the core count.
func validateGroups(groups []BudgetGroup, n int) error {
	seen := make([]bool, n)
	for gi, g := range groups {
		if len(g.Cores) == 0 {
			return fmt.Errorf("fastcap: group %d has no cores", gi)
		}
		if g.Budget <= 0 || !finite(g.Budget) {
			return fmt.Errorf("fastcap: group %d has non-positive or non-finite budget %g", gi, g.Budget)
		}
		for _, c := range g.Cores {
			if c < 0 || c >= n {
				return fmt.Errorf("fastcap: group %d references core %d of %d", gi, c, n)
			}
			if seen[c] {
				return fmt.Errorf("fastcap: core %d appears in multiple groups", c)
			}
			seen[c] = true
		}
	}
	return nil
}

// GroupedInputs extends Inputs with per-processor budgets. The global
// budget (Inputs.Budget) still applies to the whole system; each group
// constraint additionally caps the summed core power of its members.
type GroupedInputs struct {
	Inputs
	Groups []BudgetGroup
}

// Validate extends Inputs.Validate with group checks.
func (in *GroupedInputs) Validate() error {
	if err := in.Inputs.Validate(); err != nil {
		return err
	}
	return validateGroups(in.Groups, len(in.ZBar))
}

// SolveGrouped runs Algorithm 1 under the additional per-group
// constraints, using the solver's scratch.
//
// For a fixed s_b every constraint's left-hand side is monotone
// nondecreasing in D (larger D → faster cores → more power), so the
// feasible objective is D* = min(D_global, min_g D_g) where each D_c
// solves its own budget equality; the group solves run the same
// root-find as the global one over the group's cores, keeping the
// per-candidate cost O((G+1)·N) and the whole algorithm O((G+1)·N·M).
func (s *Solver) SolveGrouped(in *GroupedInputs) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if len(in.Groups) == 0 {
		return s.Solve(&in.Inputs)
	}
	s.prepare(&in.Inputs)
	// The candidate count M is small so we simply scan — group
	// constraints can flatten the objective and plain scanning is robust
	// to ties.
	best := s.solveGroupedForSb(in, 0)
	bestIdx := 0
	for i := 1; i < len(in.SbCandidates); i++ {
		if sol := s.solveGroupedForSb(in, i); betterThan(sol, best) {
			best, bestIdx = sol, i
		}
	}
	return s.finish(&in.Inputs, best, bestIdx, len(in.SbCandidates)), nil
}

// solveGroupedForSb solves the D maximization at one bus time under the
// global and all group constraints.
func (s *Solver) solveGroupedForSb(in *GroupedInputs, sbIdx int) dSolution {
	sol := s.solveForSb(&in.Inputs, sbIdx)
	bound := false // whether a group constraint lowered D below the global solution
	for _, g := range in.Groups {
		sg := s.solveBudget(g.Cores, 0, g.Budget)
		if sg.d < sol.d {
			sol.d, bound = sg.d, true
		}
		sol.feasible = sol.feasible && sg.feasible
	}
	if bound {
		pw, _, _ := s.sweep(s.all, sol.d)
		sol.pw = pw + in.basePower(sbIdx)
	}
	return sol
}
