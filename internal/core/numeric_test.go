package core

import (
	"testing"
)

func TestNumericMatchesAlgorithm1(t *testing.T) {
	// The interior-point reference must land within ~2% of Algorithm 1's
	// objective (Algorithm 1 quantizes s_b to M candidates; the numeric
	// solver works on the continuous interval, so it may be slightly
	// better, never substantially worse).
	for _, frac := range []float64{0.55, 0.65, 0.8} {
		in := testInputs(8, frac)
		alg, err := in.Solve()
		if err != nil {
			t.Fatal(err)
		}
		num, err := in.SolveNumeric(DefaultNumericOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !num.Feasible {
			t.Fatalf("budget %g: numeric infeasible", frac)
		}
		rel := (alg.D - num.D) / alg.D
		if rel > 0.02 {
			t.Errorf("budget %g: numeric D=%.6f vs Algorithm 1 D=%.6f (gap %.2f%%)",
				frac, num.D, alg.D, rel*100)
		}
	}
}

func TestNumericRespectsBudget(t *testing.T) {
	in := testInputs(8, 0.6)
	num, err := in.SolveNumeric(DefaultNumericOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Interior-point solutions stay strictly inside the budget.
	if num.PredictedPower > in.Budget {
		t.Errorf("numeric power %g exceeds budget %g", num.PredictedPower, in.Budget)
	}
	// Think times within bounds.
	for i, z := range num.Z {
		if z < in.ZBar[i]-1e-9 || z > in.ZBar[i]*in.MaxZRatios[i]+1e-9 {
			t.Errorf("core %d z=%g outside [%g, %g]", i, z, in.ZBar[i], in.ZBar[i]*in.MaxZRatios[i])
		}
	}
	if num.Sb < in.SbBar-1e-9 || num.Sb > in.SbCandidates[len(in.SbCandidates)-1]+1e-9 {
		t.Errorf("sb=%g outside range", num.Sb)
	}
}

func TestNumericInfeasibleFallsBack(t *testing.T) {
	in := testInputs(4, 0.6)
	in.Budget = 1 // impossible
	num, err := in.SolveNumeric(DefaultNumericOptions())
	if err != nil {
		t.Fatal(err)
	}
	if num.Feasible {
		t.Error("impossible budget reported feasible")
	}
}

func TestNumericValidates(t *testing.T) {
	in := testInputs(4, 0.6)
	in.ZBar[0] = -1
	if _, err := in.SolveNumeric(DefaultNumericOptions()); err == nil {
		t.Error("invalid inputs accepted")
	}
}

func TestNumericFairnessConstraint(t *testing.T) {
	in := testInputs(8, 0.6)
	num, err := in.SolveNumeric(DefaultNumericOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, z := range num.Z {
		rMin := in.Response(i, in.SbBar)
		r := in.Response(i, num.Sb)
		d := (in.ZBar[i] + in.C[i] + rMin) / (z + in.C[i] + r)
		// Interior-point keeps a small slack; every core must meet the
		// reported D within the barrier's residual.
		if d < num.D*(1-1e-3) {
			t.Errorf("core %d ratio %g below numeric D %g", i, d, num.D)
		}
	}
}

func TestNearestIndex(t *testing.T) {
	c := []float64{1, 2, 4, 8}
	cases := []struct {
		v    float64
		want int
	}{{0, 0}, {1.4, 0}, {1.6, 1}, {3.5, 2}, {100, 3}}
	for _, tc := range cases {
		if got := nearestIndex(c, tc.v); got != tc.want {
			t.Errorf("nearestIndex(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func BenchmarkNumericSolve16(b *testing.B) {
	in := testInputs(16, 0.6)
	opt := DefaultNumericOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.SolveNumeric(opt); err != nil {
			b.Fatal(err)
		}
	}
}
