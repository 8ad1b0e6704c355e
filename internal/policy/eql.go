package policy

import (
	"math"
	"sort"
)

// EqlPwr assigns every core an equal share of the core power budget, as
// proposed by Sharkey et al. [16], extended (as in the paper) with
// FastCap's memory DVFS: for each memory frequency the per-core share is
// (budget − memory − Ps)/N, each core runs as fast as its share allows,
// and the memory frequency with the best fairness objective D wins.
//
// Equal shares ignore application heterogeneity: light (memory-bound)
// apps cannot spend their share while power-hungry apps starve — the
// outlier mechanism visible in the paper's Fig. 9.
type EqlPwr struct{}

// NewEqlPwr returns the policy.
func NewEqlPwr() *EqlPwr { return &EqlPwr{} }

// Name implements Policy.
func (EqlPwr) Name() string { return "Eql-Pwr" }

// Decide implements Policy.
func (EqlPwr) Decide(s *Snapshot) (Decision, error) {
	if err := s.Validate(); err != nil {
		return Decision{}, err
	}
	n := s.N()
	mc := s.multi()
	bestD := math.Inf(-1)
	var best Decision
	for m := 0; m < s.MemLadder.Len(); m++ {
		share := (s.BudgetW - s.Power.Mem.At(s.MemLadder.NormFreq(m)) - s.Power.Ps) / float64(n)
		steps := make([]int, n)
		for i := 0; i < n; i++ {
			// Highest step of the core's own ladder whose predicted power
			// fits the share.
			lad := s.ladder(i)
			st := 0
			for k := lad.MaxStep(); k >= 0; k-- {
				if s.Power.Cores[i].At(lad.NormFreq(k)) <= share {
					st = k
					break
				}
			}
			steps[i] = st
		}
		if s.PredictPower(steps, m) > s.BudgetW {
			continue // even floored cores cannot fit with this memory freq
		}
		if d := s.objectiveD(steps, m, mc); d > bestD {
			bestD = d
			best = Decision{CoreSteps: steps, MemStep: m}
		}
	}
	if best.CoreSteps == nil {
		// No feasible point: floor everything.
		best = Decision{CoreSteps: make([]int, n), MemStep: 0}
	}
	return best, nil
}

// EqlFreq locks all cores to one common frequency, as analyzed by
// Herbert and Marculescu [42], again extended with memory DVFS: the
// (core frequency, memory frequency) pair with the best objective D
// that fits the budget wins. With heterogeneous workloads the common
// frequency is pinned by the hungriest core, leaving budget unharvested
// (paper Fig. 10).
//
// On a machine with mixed ladders no literal common frequency exists.
// The policy's spirit — one chip-wide setting, no per-core harvesting —
// is one common *normalized* frequency: each candidate normalized level
// (the union of every distinct ladder's levels) maps to the nearest step
// of each core's own ladder. When every core shares one ladder the
// candidates are exactly that ladder's steps, in order.
type EqlFreq struct{}

// NewEqlFreq returns the policy.
func NewEqlFreq() *EqlFreq { return &EqlFreq{} }

// Name implements Policy.
func (EqlFreq) Name() string { return "Eql-Freq" }

// Decide implements Policy.
func (EqlFreq) Decide(s *Snapshot) (Decision, error) {
	if err := s.Validate(); err != nil {
		return Decision{}, err
	}
	n := s.N()
	mc := s.multi()
	norms := candidateNorms(s)
	bestD := math.Inf(-1)
	var best Decision
	steps := make([]int, n)
	for m := 0; m < s.MemLadder.Len(); m++ {
		for _, x := range norms {
			for i := 0; i < n; i++ {
				lad := s.ladder(i)
				if i > 0 && lad == s.ladder(i-1) {
					steps[i] = steps[i-1] // cores of one class sit side by side
					continue
				}
				steps[i] = lad.NearestNorm(x)
			}
			if s.PredictPower(steps, m) > s.BudgetW {
				continue
			}
			if d := s.objectiveD(steps, m, mc); d > bestD {
				bestD = d
				best = Decision{CoreSteps: append([]int(nil), steps...), MemStep: m}
			}
		}
	}
	if best.CoreSteps == nil {
		return Decision{CoreSteps: make([]int, n), MemStep: 0}, nil
	}
	return best, nil
}

// candidateNorms collects the distinct normalized frequency levels of
// every core ladder in the snapshot, ascending.
func candidateNorms(s *Snapshot) []float64 {
	seen := map[float64]bool{}
	var norms []float64
	for i := 0; i < s.N(); i++ {
		lad := s.ladder(i)
		if i > 0 && lad == s.ladder(i-1) {
			continue // same class as the previous core: levels already in
		}
		for k := 0; k < lad.Len(); k++ {
			x := lad.NormFreq(k)
			if !seen[x] {
				seen[x] = true
				norms = append(norms, x)
			}
		}
	}
	sort.Float64s(norms)
	return norms
}
