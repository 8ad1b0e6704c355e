package core

import (
	"math"
	"testing"

	"repro/internal/dvfs"
)

func groupedInputs(n int, budgetFrac float64) *GroupedInputs {
	return &GroupedInputs{Inputs: *testInputs(n, budgetFrac)}
}

func TestGroupedValidate(t *testing.T) {
	gi := groupedInputs(8, 0.6)
	gi.Groups = []BudgetGroup{
		{Cores: []int{0, 1, 2, 3}, Budget: 15},
		{Cores: []int{4, 5, 6, 7}, Budget: 15},
	}
	if err := gi.Validate(); err != nil {
		t.Fatalf("valid groups rejected: %v", err)
	}
	cases := []struct {
		name   string
		groups []BudgetGroup
	}{
		{"empty group", []BudgetGroup{{Cores: nil, Budget: 5}}},
		{"zero budget", []BudgetGroup{{Cores: []int{0}, Budget: 0}}},
		{"out of range", []BudgetGroup{{Cores: []int{99}, Budget: 5}}},
		{"negative core", []BudgetGroup{{Cores: []int{-1}, Budget: 5}}},
		{"overlap", []BudgetGroup{{Cores: []int{0, 1}, Budget: 5}, {Cores: []int{1, 2}, Budget: 5}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gi := groupedInputs(8, 0.6)
			gi.Groups = c.groups
			if err := gi.Validate(); err == nil {
				t.Error("bad groups accepted")
			}
		})
	}
}

func TestGroupedNoGroupsMatchesUngrouped(t *testing.T) {
	gi := groupedInputs(16, 0.6)
	grouped, err := new(Solver).SolveGrouped(gi)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := gi.Inputs.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(grouped.D-plain.D) > 1e-12 {
		t.Errorf("no-group solve D=%g differs from plain %g", grouped.D, plain.D)
	}
}

func TestGroupedSlackGroupsDontBind(t *testing.T) {
	// Enormous group budgets: the solution must match the global-only one.
	gi := groupedInputs(8, 0.6)
	gi.Groups = []BudgetGroup{
		{Cores: []int{0, 1, 2, 3}, Budget: 1e6},
		{Cores: []int{4, 5, 6, 7}, Budget: 1e6},
	}
	grouped, err := new(Solver).SolveGrouped(gi)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := gi.Inputs.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(grouped.D-plain.D)/plain.D > 1e-9 {
		t.Errorf("slack groups changed D: %g vs %g", grouped.D, plain.D)
	}
}

func TestGroupedTightGroupBinds(t *testing.T) {
	// Give the first processor a budget well below its share: D must
	// drop below the global-only solution and the group cap must hold.
	gi := groupedInputs(8, 0.8)
	tight := 8.0 // watts for 4 cores that would like ~4.5 W each
	gi.Groups = []BudgetGroup{{Cores: []int{0, 1, 2, 3}, Budget: tight}}
	grouped, err := new(Solver).SolveGrouped(gi)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := gi.Inputs.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if grouped.D >= plain.D {
		t.Errorf("tight group did not reduce D: %g vs %g", grouped.D, plain.D)
	}
	// Group power at the solution respects the group budget.
	var gp float64
	for _, i := range []int{0, 1, 2, 3} {
		gp += gi.Power.Cores[i].At(gi.ZBar[i] / grouped.Z[i])
	}
	if gp > tight*(1+1e-6) {
		t.Errorf("group draws %g W over its %g W budget", gp, tight)
	}
	// Global power now has slack (the group constraint binds instead).
	if grouped.PredictedPower > gi.Budget*(1+1e-9) {
		t.Errorf("global budget violated: %g > %g", grouped.PredictedPower, gi.Budget)
	}
}

func TestGroupedInfeasibleGroup(t *testing.T) {
	gi := groupedInputs(8, 0.8)
	gi.Groups = []BudgetGroup{{Cores: []int{0, 1}, Budget: 0.1}} // below static
	res, err := new(Solver).SolveGrouped(gi)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("infeasible group budget reported feasible")
	}
}

func TestGroupedFairnessPreserved(t *testing.T) {
	// Even with a binding group, all cores still share one D bound: cores
	// outside the tight group must not run ahead of the common ratio.
	gi := groupedInputs(8, 0.8)
	gi.Groups = []BudgetGroup{{Cores: []int{0, 1, 2, 3}, Budget: 9}}
	res, err := new(Solver).SolveGrouped(gi)
	if err != nil {
		t.Fatal(err)
	}
	for i, z := range res.Z {
		rMin := gi.Response(i, gi.SbBar)
		r := gi.Response(i, res.Sb)
		d := (gi.ZBar[i] + gi.C[i] + rMin) / (z + gi.C[i] + r)
		if d < res.D-1e-6 {
			t.Errorf("core %d ratio %g below D=%g", i, d, res.D)
		}
	}
}

func TestGroupedQuantize(t *testing.T) {
	gi := groupedInputs(8, 0.7)
	gi.Groups = []BudgetGroup{{Cores: []int{0, 1, 2, 3}, Budget: 10}}
	res, err := new(Solver).SolveGrouped(gi)
	if err != nil {
		t.Fatal(err)
	}
	a := new(Solver).Quantize(&gi.Inputs, res, dvfs.DefaultCoreLadder(), dvfs.DefaultMemLadder(), true)
	if len(a.CoreSteps) != 8 {
		t.Fatalf("steps: %v", a.CoreSteps)
	}
	if a.PredictedPower > gi.Budget+1e-9 {
		t.Errorf("guarded quantization over global budget: %g > %g", a.PredictedPower, gi.Budget)
	}
}
