package core

import (
	"math/rand"
	"testing"
)

// sameResult compares everything a caller can observe except Evals,
// which is the only field the warm start is allowed to change.
func sameResult(a, b Result) bool {
	if a.D != b.D || a.Sb != b.Sb || a.SbIndex != b.SbIndex ||
		a.PredictedPower != b.PredictedPower || a.Feasible != b.Feasible ||
		len(a.Z) != len(b.Z) {
		return false
	}
	for i := range a.Z {
		if a.Z[i] != b.Z[i] {
			return false
		}
	}
	return true
}

// The warm-start contract: a persistent Solver fed an arbitrary epoch
// sequence — drifting budgets, per-app profile changes, heterogeneous
// dilation bounds appearing and vanishing, and shape changes in both N
// and M — returns bit-identical Results to a cold Solver on every call.
func TestWarmStartMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var warm Solver
	n := 16
	for epoch := 0; epoch < 200; epoch++ {
		// Shape changes: core count at 60/120, candidate count on a
		// 7-epoch cadence. Both must invalidate the warm hint.
		switch epoch {
		case 60:
			n = 8
		case 120:
			n = 16
		}
		in := testInputs(n, 0.6)
		if epoch%7 == 3 {
			in.SbCandidates = in.SbCandidates[:len(in.SbCandidates)-2]
		}
		if epoch >= 90 && epoch < 150 {
			// Heterogeneous ladders: per-core dilation bounds.
			ratios := make([]float64, n)
			for i := range ratios {
				ratios[i] = 2 + float64(i%3)
			}
			in.MaxZRatios = ratios
		}
		// Steady-state drift: the budget moves and one app's profile
		// changes — exactly the case the warm path targets.
		in.Budget = (0.4 + 0.55*rng.Float64()) * in.Power.Peak()
		in.ZBar[rng.Intn(n)] *= 0.8 + 0.4*rng.Float64()

		var cold Solver
		want, err := cold.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		if epoch%13 == 5 {
			// Exhaustive scans must hand a valid hint to later Solves.
			got, err = warm.SolveExhaustive(in)
			wantExh, exhErr := new(Solver).SolveExhaustive(in)
			if exhErr != nil {
				t.Fatal(exhErr)
			}
			want = wantExh
		} else {
			got, err = warm.Solve(in)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Fatalf("epoch %d (n=%d, m=%d): warm result diverged from cold:\nwarm: %+v\ncold: %+v",
				epoch, n, len(in.SbCandidates), got, want)
		}
	}
}

// The warm start must actually engage: re-solving after a small budget
// move costs the winner plus its two neighbors, not a fresh bisection.
func TestWarmStartSkipsBisection(t *testing.T) {
	var s Solver
	in := testInputs(16, 0.6)
	first, err := s.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Budget *= 1.01
	res, err := s.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals > 3 {
		t.Errorf("steady-state re-solve used %d evals, want ≤ 3 (warm start inactive?)", res.Evals)
	}
	if res.SbIndex != first.SbIndex {
		t.Logf("note: winner moved %d → %d under 1%% budget change", first.SbIndex, res.SbIndex)
	}
}

// The Solver's steady-state alloc ceiling: with scratch warm and the
// warm start engaged, a re-solve allocates only the Result's escaping
// Z slice.
func TestSolverSteadyStateAllocs(t *testing.T) {
	var s Solver
	in := testInputs(16, 0.6)
	if _, err := s.Solve(in); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Solve(in); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("steady-state Solve allocates %.1f objects, want ≤ 1 (the Z slice)", avg)
	}
}
