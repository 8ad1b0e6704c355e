package core

import (
	"fmt"
	"math"
)

// NumericOptions tune the reference interior-point solver.
type NumericOptions struct {
	// BarrierSteps is the number of outer barrier reductions.
	BarrierSteps int
	// InnerSteps bounds gradient-descent iterations per barrier value.
	InnerSteps int
	// Tol is the relative convergence tolerance on the objective.
	Tol float64
}

// DefaultNumericOptions match the accuracy used in the Table I
// comparison.
func DefaultNumericOptions() NumericOptions {
	return NumericOptions{BarrierSteps: 18, InnerSteps: 400, Tol: 1e-7}
}

// SolveNumeric solves the FastCap program with a log-barrier
// interior-point method over the *continuous* variables (z_1..z_N, s_b,
// u = 1/D) — the style of general-purpose numeric optimization the paper
// attributes to Bergamaschi et al. [20] and characterizes as "usually
// takes many steps to converge". It exists as an independent reference
// for Algorithm 1 (property tests check both land on the same objective)
// and as the measured "Numeric Opt" row of Table I.
//
// Formulation (convex): minimize u subject to
//
//	z_i + c_i + R_i(s_b) − u·T̄_i ≤ 0      (fairness, T̄_i = best turn-around)
//	Σ P_i(z̄_i/z_i)^α_i + P_m(s̄_b/s_b)^β + P_s − B ≤ 0
//	z̄_i ≤ z_i ≤ z̄_i·MaxZRatios[i],  s̄_b ≤ s_b ≤ s_b,max,  u ≥ 1
//
// The returned Result mirrors Solve's: D = 1/u and the final s_b is
// continuous (not snapped to a candidate); SbIndex is the nearest
// candidate.
func (in *Inputs) SolveNumeric(opt NumericOptions) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	if opt.BarrierSteps <= 0 || opt.InnerSteps <= 0 {
		opt = DefaultNumericOptions()
	}
	n := len(in.ZBar)
	sbMin := in.SbBar
	sbMax := in.SbCandidates[len(in.SbCandidates)-1]

	// R_i(s_b) is affine in s_b for Eq. 1 models; sample slope/intercept
	// per core so gradients are exact.
	rA := make([]float64, n) // intercept
	rB := make([]float64, n) // slope
	for i := 0; i < n; i++ {
		r0 := in.Response(i, sbMin)
		r1 := in.Response(i, sbMax)
		rB[i] = (r1 - r0) / (sbMax - sbMin)
		rA[i] = r0 - rB[i]*sbMin
	}
	tBar := make([]float64, n)
	for i := 0; i < n; i++ {
		tBar[i] = in.ZBar[i] + in.C[i] + rA[i] + rB[i]*sbMin
	}

	// Interior start near the minimum-power corner (which the
	// feasibility pre-check below guarantees is inside the budget), with
	// u loose enough that every fairness constraint has slack.
	z := make([]float64, n)
	for i := range z {
		z[i] = in.ZBar[i] * (1 + 0.98*(in.MaxZRatios[i]-1))
	}
	sb := sbMin + 0.98*(sbMax-sbMin)
	u := 0.0
	for i := 0; i < n; i++ {
		ratio := (z[i] + in.C[i] + rA[i] + rB[i]*sb) / tBar[i]
		if ratio > u {
			u = ratio
		}
	}
	u *= 1.1

	power := func(z []float64, sb float64) float64 {
		p := in.Power.Ps + in.Power.Mem.At(sbMin/sb)
		for i := 0; i < n; i++ {
			p += in.Power.Cores[i].At(in.ZBar[i] / z[i])
		}
		return p
	}
	// Feasibility pre-check: minimum power exceeding the budget means the
	// program is infeasible; report like Solve does.
	zFloor := make([]float64, n)
	maxRatio := 1.0 // the loosest dilation bound, which bounds u = 1/D below
	for i := range zFloor {
		zFloor[i] = in.ZBar[i] * in.MaxZRatios[i]
		maxRatio = math.Max(maxRatio, in.MaxZRatios[i])
	}
	if power(zFloor, sbMax) > in.Budget {
		res, err := in.Solve()
		if err != nil {
			return Result{}, err
		}
		return res, nil // Solve's best-effort floor assignment
	}

	// Barrier value and gradient. Returns +Inf outside the domain.
	eval := func(z []float64, sb, u, mu float64, grad []float64) float64 {
		for i := range grad {
			grad[i] = 0
		}
		val := u
		grad[n+1] = 1 // d/du of the objective
		addLog := func(slack float64, idx []int, dSlack []float64) bool {
			if slack <= 0 {
				return false
			}
			val -= mu * math.Log(slack)
			for k, id := range idx {
				grad[id] -= mu / slack * dSlack[k]
			}
			return true
		}
		// Fairness constraints: slack_i = u·T̄_i − (z_i + c_i + R_i(sb)).
		for i := 0; i < n; i++ {
			slack := u*tBar[i] - (z[i] + in.C[i] + rA[i] + rB[i]*sb)
			if !addLog(slack, []int{i, n, n + 1}, []float64{-1, -rB[i], tBar[i]}) {
				return math.Inf(1)
			}
		}
		// Power constraint: slack = B − power.
		pw := power(z, sb)
		slack := in.Budget - pw
		if slack <= 0 {
			return math.Inf(1)
		}
		val -= mu * math.Log(slack)
		for i := 0; i < n; i++ {
			// d power/d z_i = −α_i·P_i·(z̄/z)^α / z
			x := in.ZBar[i] / z[i]
			dp := -in.Power.Cores[i].Exp * in.Power.Cores[i].Scale * math.Pow(x, in.Power.Cores[i].Exp) / z[i]
			grad[i] -= mu / slack * (-dp)
		}
		xm := sbMin / sb
		dpm := -in.Power.Mem.Exp * in.Power.Mem.Scale * math.Pow(xm, in.Power.Mem.Exp) / sb
		grad[n] -= mu / slack * (-dpm)
		// Box constraints.
		for i := 0; i < n; i++ {
			if !addLog(z[i]-in.ZBar[i], []int{i}, []float64{1}) {
				return math.Inf(1)
			}
			if !addLog(zFloor[i]-z[i], []int{i}, []float64{-1}) {
				return math.Inf(1)
			}
		}
		if !addLog(sb-sbMin, []int{n}, []float64{1}) {
			return math.Inf(1)
		}
		if !addLog(sbMax-sb, []int{n}, []float64{-1}) {
			return math.Inf(1)
		}
		if !addLog(u-1/maxRatio/4, []int{n + 1}, []float64{1}) {
			return math.Inf(1)
		}
		return val
	}

	// Diagonal preconditioning: think times are O(10²–10³ ns) while u is
	// O(1), so raw gradient descent is hopelessly ill-conditioned.
	// Descending in the normalized variables (z_i/z̄_i, s_b/s̄_b, u) is
	// equivalent to scaling each gradient component by the square of its
	// variable's natural magnitude.
	precond := make([]float64, n+2)
	for i := 0; i < n; i++ {
		precond[i] = in.ZBar[i] * in.ZBar[i]
	}
	precond[n] = sbMin * sbMin
	precond[n+1] = 1

	grad := make([]float64, n+2)
	scratch := make([]float64, n+2)
	trial := make([]float64, n)
	mu := 1.0
	for outer := 0; outer < opt.BarrierSteps; outer++ {
		for inner := 0; inner < opt.InnerSteps; inner++ {
			val := eval(z, sb, u, mu, grad)
			if math.IsInf(val, 1) {
				return Result{}, fmt.Errorf("fastcap: numeric solver left the domain")
			}
			norm := 0.0
			for i, g := range grad {
				norm += g * g * precond[i]
			}
			norm = math.Sqrt(norm)
			if norm < 1e-12 {
				break
			}
			// Backtracking line search along the preconditioned direction.
			step := 1.0 / (1 + norm)
			improved := false
			for bt := 0; bt < 50; bt++ {
				for i := 0; i < n; i++ {
					trial[i] = z[i] - step*grad[i]*precond[i]
				}
				tsb := sb - step*grad[n]*precond[n]
				tu := u - step*grad[n+1]*precond[n+1]
				if v := eval(trial, tsb, tu, mu, scratch); v < val-1e-15 {
					copy(z, trial)
					sb, u = tsb, tu
					improved = true
					break
				}
				step /= 2
			}
			if !improved {
				break
			}
		}
		mu /= 2.5
	}

	d := 1 / u
	best := Result{
		D:              d,
		Z:              append([]float64(nil), z...),
		Sb:             sb,
		SbIndex:        nearestIndex(in.SbCandidates, sb),
		PredictedPower: power(z, sb),
		Feasible:       true,
	}
	return best, nil
}

// nearestIndex returns the index of the candidate closest to v.
func nearestIndex(cands []float64, v float64) int {
	best, bd := 0, math.Inf(1)
	for i, c := range cands {
		if d := math.Abs(c - v); d < bd {
			best, bd = i, d
		}
	}
	return best
}
