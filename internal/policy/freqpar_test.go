package policy

import (
	"math"
	"testing"
	"testing/quick"
)

// equalFloorShares runs the quota division with one lower clamp shared
// by every core — the shape a machine of N equal ladders produces.
func equalFloorShares(quota float64, weights []float64, lo, hi float64) []float64 {
	los := make([]float64, len(weights))
	for i := range los {
		los[i] = lo
	}
	return distributeQuotaBounds(quota, weights, los, hi)
}

func TestDistributeQuotaProportional(t *testing.T) {
	// No clamps binding: shares are proportional to weights and sum to
	// the quota.
	shares := equalFloorShares(1.2, []float64{1, 3}, 0.1, 1.0)
	if math.Abs(shares[0]-0.3) > 1e-6 || math.Abs(shares[1]-0.9) > 1e-6 {
		t.Errorf("shares = %v, want [0.3 0.9]", shares)
	}
	// A clamped partner's excess redistributes: weights {1, 3} with
	// quota 2.0 and hi = 1.0 must give both cores 1.0.
	shares = equalFloorShares(2.0, []float64{1, 3}, 0.1, 1.0)
	if math.Abs(shares[0]-1.0) > 1e-6 || math.Abs(shares[1]-1.0) > 1e-6 {
		t.Errorf("shares = %v, want [1.0 1.0]", shares)
	}
}

func TestDistributeQuotaRespectsFloor(t *testing.T) {
	// A tiny weight would get below the floor; it must be raised to the
	// floor and the rest re-apportioned so the total stays at the quota.
	shares := equalFloorShares(1.2, []float64{0.01, 1, 1}, 0.5, 1.0)
	sum := 0.0
	for _, s := range shares {
		if s < 0.5-1e-9 || s > 1.0+1e-9 {
			t.Errorf("share %g outside [0.5, 1]", s)
		}
		sum += s
	}
	// Floors force Σ ≥ 1.5 > quota here; the distribution must use the
	// floor for everyone rather than inflate selectively.
	if shares[0] != 0.5 {
		t.Errorf("tiny-weight share = %g, want floor", shares[0])
	}
	_ = sum
}

func TestDistributeQuotaConservesWhenFeasible(t *testing.T) {
	quota := 2.4
	weights := []float64{0.2, 1, 1, 2}
	shares := equalFloorShares(quota, weights, 0.4, 1.0)
	sum := 0.0
	for _, s := range shares {
		sum += s
		if s < 0.4-1e-9 || s > 1.0+1e-9 {
			t.Fatalf("share %g out of bounds", s)
		}
	}
	if math.Abs(sum-quota) > 1e-6 {
		t.Errorf("Σshares = %g, want quota %g", sum, quota)
	}
}

func TestDistributeQuotaCeiling(t *testing.T) {
	// Quota exceeding n·hi pins everyone at the ceiling.
	shares := equalFloorShares(10, []float64{1, 1, 1}, 0.5, 1.0)
	for i, s := range shares {
		if s != 1.0 {
			t.Errorf("share %d = %g, want 1.0", i, s)
		}
	}
}

func TestDistributeQuotaBelowFloorTotal(t *testing.T) {
	// Quota below n·lo: everyone sits at the floor (the controller's
	// clamp handles the residual error).
	shares := equalFloorShares(0.5, []float64{1, 2, 3}, 0.4, 1.0)
	for i, s := range shares {
		if s != 0.4 {
			t.Errorf("share %d = %g, want floor 0.4", i, s)
		}
	}
}

// Property: shares always stay within [lo, hi] and, when the quota is
// representable (n·lo ≤ quota ≤ n·hi), they sum to it within tolerance.
func TestDistributeQuotaProperty(t *testing.T) {
	f := func(raw []uint8, qRaw uint8) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		weights := make([]float64, len(raw))
		for i, r := range raw {
			weights[i] = 0.05 + float64(r)/64.0
		}
		lo, hi := 0.55, 1.0
		n := float64(len(raw))
		quota := n*lo + (n*hi-n*lo)*float64(qRaw)/255.0
		shares := equalFloorShares(quota, weights, lo, hi)
		sum := 0.0
		for _, s := range shares {
			if s < lo-1e-9 || s > hi+1e-9 {
				return false
			}
			sum += s
		}
		return math.Abs(sum-quota) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreqParOscillatesWithConvexPlant(t *testing.T) {
	// Drive the controller against a convex (α = 2.8) plant: because its
	// internal model is linear, the epoch-to-epoch power must fluctuate
	// measurably (the paper's oscillation critique) while the long-run
	// mean stays near the target.
	p := NewFreqPar()
	s := snap(16, 0.6)
	for i := range s.Power.Cores {
		s.Power.Cores[i].Exp = 2.8
	}
	var powers []float64
	for epoch := 0; epoch < 40; epoch++ {
		d, err := p.Decide(s)
		if err != nil {
			t.Fatal(err)
		}
		pw := s.PredictPower(d.CoreSteps, d.MemStep)
		powers = append(powers, pw)
		for i := range s.MeasuredCoreW {
			s.MeasuredCoreW[i] = s.Power.Cores[i].At(s.CoreLadder.NormFreq(d.CoreSteps[i]))
		}
		s.CurCoreSteps = d.CoreSteps
		s.MeasuredMemW = s.Power.Mem.Peak()
	}
	// Long-run mean near the budget.
	tail := powers[10:]
	mean := 0.0
	for _, v := range tail {
		mean += v
	}
	mean /= float64(len(tail))
	if math.Abs(mean-s.BudgetW)/s.BudgetW > 0.12 {
		t.Errorf("long-run mean %g W vs budget %g W", mean, s.BudgetW)
	}
}
