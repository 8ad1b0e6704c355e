package policy

import "math"

// FreqPar reimplements the control-theoretic policy of Ma et al. [22]
// as described in the paper's §IV-B: a linear feedback loop adjusts a
// chip-wide frequency *quota* each epoch to steer measured core power
// toward the core share of the budget, and the quota is divided among
// cores in proportion to their power efficiency (throughput per watt).
// Memory stays at maximum frequency ("Freq-Par*" in Fig. 9).
//
// Faithfully to the original — and to the paper's critique — the
// controller assumes power is *linear* in frequency. The real curve is
// convex (α ∈ [2,3]), so the loop over- and under-corrects, producing
// the power oscillation and unfairness the paper reports.
type FreqPar struct {
	// Gain is the feedback gain on the power error (fraction of the
	// error corrected per epoch).
	Gain float64
	// quota is the persistent total normalized-frequency allocation
	// Σ f_i/f_max; <0 means "initialize on first Decide".
	quota float64
	// lo is per-Decide scratch: each core's lower share clamp.
	lo []float64
}

// NewFreqPar returns the policy with the gain used in our evaluation.
func NewFreqPar() *FreqPar { return &FreqPar{Gain: 0.8, quota: -1} }

// Name implements Policy.
func (p *FreqPar) Name() string { return "Freq-Par" }

// Decide implements Policy.
func (p *FreqPar) Decide(s *Snapshot) (Decision, error) {
	if err := s.Validate(); err != nil {
		return Decision{}, err
	}
	n := s.N()
	if p.quota < 0 {
		p.quota = float64(n) // start at all-max
	}

	// Core power target: whatever the budget leaves after measured
	// memory power and the static system floor.
	coreBudget := s.BudgetW - s.MeasuredMemW - s.Power.Ps
	measured := 0.0
	for _, w := range s.MeasuredCoreW {
		measured += w
	}
	// Linear power-frequency model: slope = average peak dynamic power
	// per unit normalized frequency (deliberately ignores curvature).
	slope := 0.0
	for _, m := range s.Power.Cores {
		slope += m.Scale
	}
	slope /= float64(n)
	if slope <= 0 {
		slope = 1
	}
	p.quota += p.Gain * (coreBudget - measured) / slope

	// Efficiency-weighted division: throughput per watt at the current
	// operating point. Inefficient cores receive less frequency — the
	// unfairness mechanism the paper highlights.
	mc := s.multi()
	sb := s.sbForMemStep(s.CurMemStep)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		bips := s.IPA[i] / s.turnaround(i, s.CurCoreSteps[i], sb, mc)
		w := s.MeasuredCoreW[i]
		if w <= 0 {
			w = 1e-3
		}
		weights[i] = bips / w
	}
	// Each core's share is normalized to its own ladder, so the per-core
	// lower clamp is that ladder's minimum level.
	p.lo = p.lo[:0]
	loSum := 0.0
	for i := 0; i < n; i++ {
		p.lo = append(p.lo, s.ladder(i).NormFreq(0))
		loSum += p.lo[i]
	}
	p.quota = math.Max(loSum, math.Min(float64(n), p.quota))
	shares := distributeQuotaBounds(p.quota, weights, p.lo, 1)
	steps := make([]int, n)
	for i := 0; i < n; i++ {
		steps[i] = s.ladder(i).NearestNorm(shares[i])
	}
	return Decision{CoreSteps: steps, MemStep: s.MemLadder.MaxStep()}, nil
}

// distributeQuotaBounds splits a total normalized-frequency quota across
// cores proportionally to weights, respecting the per-core [lo_i, hi]
// clamps (each core's share is normalized to its own ladder, whose
// minimum level differs per class). The shares are clamp(λ·w_i, lo_i, hi)
// for the multiplier λ that makes them sum to the quota;
// Σ clamp(λ·w_i) is monotone nondecreasing in λ, so λ is found by
// bisection. This keeps the feedback loop honest: the allocated total
// equals the quota whenever Σ lo_i ≤ quota ≤ n·hi.
func distributeQuotaBounds(quota float64, weights, lo []float64, hi float64) []float64 {
	n := len(weights)
	shares := make([]float64, n)
	w := make([]float64, n)
	minW := math.Inf(1)
	loSum := 0.0
	for i, v := range weights {
		if v <= 0 || math.IsNaN(v) {
			v = 1e-9
		}
		w[i] = v
		if v < minW {
			minW = v
		}
		loSum += lo[i]
	}
	fill := func(lam float64) float64 {
		sum := 0.0
		for i := 0; i < n; i++ {
			s := lam * w[i]
			if s < lo[i] {
				s = lo[i]
			} else if s > hi {
				s = hi
			}
			shares[i] = s
			sum += s
		}
		return sum
	}
	if quota <= loSum {
		fill(0)
		return shares
	}
	if quota >= float64(n)*hi {
		fill(math.Inf(1))
		return shares
	}
	loLam, hiLam := 0.0, hi/minW // at hiLam every share clamps to hi
	for it := 0; it < 60; it++ {
		mid := 0.5 * (loLam + hiLam)
		if fill(mid) < quota {
			loLam = mid
		} else {
			hiLam = mid
		}
	}
	fill(hiLam)
	return shares
}
