package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/qmodel"
)

// SyntheticSnapshot builds a realistic policy input for n cores (half
// CPU-bound, half memory-bound) used by the timing studies.
func SyntheticSnapshot(n int, budgetFrac float64) *policy.Snapshot {
	coreL, memL := dvfs.DefaultCoreLadder(), dvfs.DefaultMemLadder()
	s := &policy.Snapshot{
		ZBar:          make([]float64, n),
		C:             make([]float64, n),
		IPA:           make([]float64, n),
		Power:         power.System{Ps: 12, Mem: power.Model{Scale: 26, Exp: 1, Static: 10}},
		MemStats:      []qmodel.MemStats{{Q: 2.1, U: 1.7, Sm: 27}},
		AccessProb:    make([][]float64, n),
		SbBar:         5,
		CoreLadder:    coreL,
		MemLadder:     memL,
		MeasuredCoreW: make([]float64, n),
		CurCoreSteps:  make([]int, n),
		CurMemStep:    memL.MaxStep(),
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			s.ZBar[i] = 1500 + float64(i)*13
			s.IPA[i] = 4000
		} else {
			s.ZBar[i] = 90 + float64(i)*2
			s.IPA[i] = 55
		}
		s.C[i] = 7.5
		s.IPA[i] += float64(i % 7)
		s.Power.Cores = append(s.Power.Cores, power.Model{
			Scale: 3.8 + 0.1*float64(i%8), Exp: 2.2 + 0.05*float64(i%10), Static: 0.5,
		})
		s.AccessProb[i] = []float64{1}
		s.MeasuredCoreW[i] = 3.5
		s.CurCoreSteps[i] = coreL.MaxStep()
	}
	s.BudgetW = budgetFrac * s.Power.Peak()
	return s
}

// OverheadRow is one row of the paper's algorithm-overhead study
// (§IV-B): mean FastCap execution time per invocation and its share of
// a 5 ms epoch.
type OverheadRow struct {
	Cores      int
	MeanUs     float64
	PctOfEpoch float64
}

// Overhead times the FastCap solver for 16/32/64 cores, reproducing the
// paper's 33.5/64.9/133.5 µs measurement (absolute values differ with
// hardware; linearity in N is the claim under test). iters ≤ 0 uses a
// default of 2000.
func Overhead(iters int) ([]OverheadRow, error) {
	if iters <= 0 {
		iters = 2000
	}
	var out []OverheadRow
	for _, n := range []int{16, 32, 64} {
		s := SyntheticSnapshot(n, 0.6)
		in := s.Inputs()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := in.Solve(); err != nil {
				return nil, err
			}
		}
		us := float64(time.Since(start).Microseconds()) / float64(iters)
		out = append(out, OverheadRow{Cores: n, MeanUs: us, PctOfEpoch: us / 5000 * 100})
	}
	return out, nil
}

// SyntheticSnapshotInputs builds optimizer inputs directly (benchmarks).
func SyntheticSnapshotInputs(n int, budgetFrac float64) *core.Inputs {
	return SyntheticSnapshot(n, budgetFrac).Inputs()
}

// Table1Row is one row of the paper's Table I, measured: per-decision
// latency of each policy's search at a given core count.
type Table1Row struct {
	Method string
	Cores  int
	MeanUs float64
	Note   string
}

// Table1 measures the decision latency of FastCap against the
// exhaustive (MaxBIPS-style), heuristic (Eql-Freq grid) and equal-share
// searches, demonstrating the complexity separation of the paper's
// Table I: FastCap scales linearly in N while exhaustive search
// explodes beyond a handful of cores.
func Table1(iters int) ([]Table1Row, error) {
	if iters <= 0 {
		iters = 200
	}
	var out []Table1Row
	timeIt := func(f func() error) (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Microseconds()) / float64(iters), nil
	}

	for _, n := range []int{2, 4} {
		s := SyntheticSnapshot(n, 0.6)
		p := policy.NewMaxBIPS()
		us, err := timeIt(func() error { _, err := p.Decide(s); return err })
		if err != nil {
			return nil, err
		}
		out = append(out, Table1Row{Method: "Exhaustive [14]", Cores: n, MeanUs: us, Note: "O(M·F^N)"})
	}
	// The interior-point reference converges in hundreds of milliseconds;
	// a handful of iterations suffices for a stable mean.
	numIters := iters / 40
	if numIters < 2 {
		numIters = 2
	}
	for _, n := range []int{16} {
		in := SyntheticSnapshot(n, 0.6).Inputs()
		start := time.Now()
		for i := 0; i < numIters; i++ {
			if _, err := in.SolveNumeric(core.DefaultNumericOptions()); err != nil {
				return nil, err
			}
		}
		us := float64(time.Since(start).Microseconds()) / float64(numIters)
		out = append(out, Table1Row{Method: "Numeric Opt [20]", Cores: n, MeanUs: us, Note: "interior point, many steps"})
	}
	for _, n := range []int{16, 64, 256} {
		s := SyntheticSnapshot(n, 0.6)
		for _, m := range []struct {
			name string
			pol  policy.Policy
			note string
		}{
			{"Eql-Freq [42]", policy.NewEqlFreq(), "O(M·F·N)"},
			{"Eql-Pwr [16]", policy.NewEqlPwr(), "O(M·F·N)"},
			{"Greedy [18,19]", policy.NewGreedy(), "O(M·F·N·log N)"},
			{"FastCap", policy.NewFastCap(), "O(N·log M)"},
		} {
			us, err := timeIt(func() error { _, err := m.pol.Decide(s); return err })
			if err != nil {
				return nil, err
			}
			out = append(out, Table1Row{Method: m.name, Cores: n, MeanUs: us, Note: m.note})
		}
	}
	return out, nil
}
