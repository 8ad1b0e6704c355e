// Package runner drives the closed loop of the FastCap paper's §III-C:
// per epoch, run the 300 µs profiling phase, refresh the online power
// model fits, hand the policy a Snapshot, apply its DVFS decision, and
// finish the epoch — collecting the power and performance series every
// figure of the evaluation is built from.
//
// The loop comes in two forms. Session is the streaming API: one epoch
// per Step call, with per-epoch observers, mid-run budget retargeting
// and context cancellation, against any Platform (the simulator, a
// recorded-trace replay, or a production adapter). Run and RunPair are
// the batch form — thin loops over Session.Step that return after the
// last epoch, kept for the figure harness and produce bit-identical
// results.
package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cpusim"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config describes one experiment run.
type Config struct {
	Sim        sim.Config
	Mix        workload.MixSpec
	BudgetFrac float64
	Epochs     int
	// Policy decides DVFS settings; nil runs the all-max baseline the
	// paper normalizes against.
	Policy policy.Policy
	// BudgetSchedule, if non-nil, overrides BudgetFrac per epoch
	// (dynamic budget experiments). Every returned fraction must lie in
	// (0, 1]; the run fails fast on the first epoch whose value does
	// not. Equivalent to the WithBudgetTrace session option.
	BudgetSchedule func(epoch int) float64
}

// EpochRecord is one epoch's outcome.
type EpochRecord struct {
	Epoch int
	// AvgPowerW is the whole-epoch average system power; CoresW/MemW
	// split it (epoch-average, excluding Ps).
	AvgPowerW float64
	CoresW    float64
	MemW      float64
	// BudgetW is the cap in force during this epoch; PeakW the
	// platform's nameplate peak, so streaming observers can normalize
	// without reaching back to the Session.
	BudgetW float64
	PeakW   float64
	// Decision applied after the profiling phase.
	CoreSteps []int
	MemStep   int
	// Instr is per-core instructions retired in the epoch.
	Instr []float64
	// CoreW is the per-core epoch-average power (W).
	CoreW []float64
	// Model-validation signals (policy runs only): the fitted-model
	// power prediction at the applied operating point, the measured
	// power over the post-decision window, and the Eq. 1 response-time
	// prediction vs the measured mean response in that window.
	PredictedPowerW float64
	RestPowerW      float64
	PredictedRespNs float64
	MeasuredRespNs  float64
}

// Result aggregates a full run.
type Result struct {
	Mix        string
	PolicyName string
	Cores      int
	PeakW      float64
	BudgetW    float64
	Epochs     []EpochRecord
	// TotalInstr is per-core instructions over the run; NsPerInstr the
	// per-core average time per instruction (the CPI-equivalent metric
	// used for normalized performance).
	TotalInstr  []float64
	NsPerInstr  []float64
	TotalTimeNs float64
}

// AvgPowerW returns the run-average system power.
func (r *Result) AvgPowerW() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	s := 0.0
	for _, e := range r.Epochs {
		s += e.AvgPowerW
	}
	return s / float64(len(r.Epochs))
}

// MaxEpochPowerW returns the highest single-epoch average power — the
// "maximum average power" bars of Fig. 12.
func (r *Result) MaxEpochPowerW() float64 {
	m := 0.0
	for _, e := range r.Epochs {
		if e.AvgPowerW > m {
			m = e.AvgPowerW
		}
	}
	return m
}

// NormalizedPerf divides this run's per-core time-per-instruction by the
// baseline's; values above 1 are the percentage performance loss the
// paper plots.
func (r *Result) NormalizedPerf(baseline *Result) ([]float64, error) {
	if len(r.NsPerInstr) != len(baseline.NsPerInstr) {
		return nil, fmt.Errorf("runner: baseline has %d cores, run has %d", len(baseline.NsPerInstr), len(r.NsPerInstr))
	}
	out := make([]float64, len(r.NsPerInstr))
	for i := range out {
		if baseline.NsPerInstr[i] <= 0 {
			return nil, fmt.Errorf("runner: baseline core %d made no progress", i)
		}
		out[i] = r.NsPerInstr[i] / baseline.NsPerInstr[i]
	}
	return out, nil
}

// Run executes one experiment to completion: a Session stepped from
// epoch 0 through cfg.Epochs. The Result is bit-identical to driving
// the Session.Step loop by hand.
func Run(cfg Config) (*Result, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := s.Step(context.Background()); err != nil {
			if errors.Is(err, ErrDone) {
				break
			}
			return nil, err
		}
	}
	return s.Result(), nil
}

// combineBreakdown produces epoch-average core and memory power.
func combineBreakdown(prof, rest sim.Profile) (coresW, memW float64) {
	total := prof.WindowNs + rest.WindowNs
	var pc, pm, rc, rm float64
	for _, c := range prof.Cores {
		pc += c.PowerW
	}
	for _, m := range prof.Mem {
		pm += m.PowerW
	}
	for _, c := range rest.Cores {
		rc += c.PowerW
	}
	for _, m := range rest.Mem {
		rm += m.PowerW
	}
	coresW = (pc*prof.WindowNs + rc*rest.WindowNs) / total
	memW = (pm*prof.WindowNs + rm*rest.WindowNs) / total
	return coresW, memW
}

// controllerState carries the session-owned online estimation state: the
// per-core and memory power-model fitters, last-known good Eq. 9 inputs,
// and the current operating point.
type controllerState struct {
	cfg          Config
	plat         Platform
	layout       *sim.MachineLayout
	coreFitters  []*power.Fitter
	memFitter    *power.Fitter
	lastZBar     []float64
	lastIPA      []float64
	curCoreSteps []int
	curMemStep   int
	// snap is the reusable policy input: its slices are refilled every
	// epoch (policies only read the snapshot inside Decide).
	snap policy.Snapshot
}

func newControllerState(cfg Config, wl *workload.Workload, plat Platform, layout *sim.MachineLayout) *controllerState {
	n := cfg.Sim.Cores
	st := &controllerState{
		cfg:          cfg,
		plat:         plat,
		layout:       layout,
		lastZBar:     make([]float64, n),
		lastIPA:      make([]float64, n),
		curCoreSteps: make([]int, n),
		curMemStep:   cfg.Sim.MemLadder.MaxStep(),
	}
	for i := 0; i < n; i++ {
		app := wl.Apps[i]
		pc := layout.Power(i)
		guess := pc.DynMaxW * app.Activity
		st.coreFitters = append(st.coreFitters, power.NewCoreFitter(pc.StaticW, guess))
		st.lastZBar[i] = 500 // neutral prior until first profile
		st.lastIPA[i] = app.InstrPerMiss()
		st.curCoreSteps[i] = layout.Ladder(i).MaxStep()
	}
	nCtl := float64(cfg.Sim.Controllers)
	st.memFitter = power.NewMemFitter(
		cfg.Sim.MemPower.StaticW*nCtl,
		(cfg.Sim.MemPower.ClockW+cfg.Sim.MemPower.TransferW)*nCtl,
	)
	return st
}

// observe feeds the profiling window's measurements to the fitters and
// refreshes the Eq. 9 estimates.
func (st *controllerState) observe(prof sim.Profile) {
	for i, cp := range prof.Cores {
		st.coreFitters[i].Observe(cp.FreqGHz/st.layout.Ladder(i).Max(), cp.PowerW)
		if cp.ZBarNs > 0 {
			st.lastZBar[i] = cp.ZBarNs
		}
		if cp.IPA > 0 {
			st.lastIPA[i] = cp.IPA
		}
	}
	memW := 0.0
	for _, mp := range prof.Mem {
		memW += mp.PowerW
	}
	st.memFitter.Observe(prof.Mem[0].FreqGHz/st.cfg.Sim.MemLadder.Max(), memW)
}

// snapshot assembles the policy input for this epoch into the reusable
// snapshot buffer. The returned pointer (and its slices) is valid until
// the next snapshot call — policies consume it within Decide.
func (st *controllerState) snapshot(prof sim.Profile, budgetW float64) *policy.Snapshot {
	n := st.cfg.Sim.Cores
	s := &st.snap
	s.ZBar = append(s.ZBar[:0], st.lastZBar...)
	s.IPA = append(s.IPA[:0], st.lastIPA...)
	if cap(s.C) < n {
		s.C = make([]float64, n)
		for i := range s.C {
			s.C[i] = cpusim.L2HitTimeNs
		}
	} else {
		s.C = s.C[:n]
	}
	s.AccessProb = st.plat.AccessProb()
	s.SbBar = st.plat.SbBarNs()
	s.CoreLadders = st.layout.Ladders()
	s.MemLadder = st.cfg.Sim.MemLadder
	s.BudgetW = budgetW
	s.MeasuredCoreW = s.MeasuredCoreW[:0]
	s.CurCoreSteps = append(s.CurCoreSteps[:0], st.curCoreSteps...)
	s.CurMemStep = st.curMemStep
	s.Power.Cores = s.Power.Cores[:0]
	for i := 0; i < n; i++ {
		s.MeasuredCoreW = append(s.MeasuredCoreW, prof.Cores[i].PowerW)
		s.Power.Cores = append(s.Power.Cores, st.coreFitters[i].Model())
	}
	s.Power.Mem = st.memFitter.Model()
	s.Power.Ps = st.cfg.Sim.PsW
	s.MemStats = s.MemStats[:0]
	s.MeasuredMemW = 0
	for _, mp := range prof.Mem {
		s.MemStats = append(s.MemStats, mp.Stats)
		s.MeasuredMemW += mp.PowerW
	}
	return s
}

// RunPair executes the policy run and its all-max baseline with
// identical seeds and returns both. The two runs build independent
// systems, so they execute concurrently; results are deterministic
// because each run owns its engine and RNGs.
func RunPair(cfg Config) (pol, base *Result, err error) {
	var (
		wg      sync.WaitGroup
		baseErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		bcfg := cfg
		bcfg.Policy = nil
		// The baseline never applies DVFS, so the budget only affects its
		// BudgetW bookkeeping. Drop the schedule rather than invoke a
		// possibly-stateful caller callback from two goroutines at once.
		if bcfg.BudgetSchedule != nil {
			bcfg.BudgetSchedule = nil
			if !(bcfg.BudgetFrac > 0 && bcfg.BudgetFrac <= 1) {
				bcfg.BudgetFrac = 1
			}
		}
		base, baseErr = Run(bcfg)
	}()
	pol, err = Run(cfg)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	if baseErr != nil {
		return nil, nil, baseErr
	}
	return pol, base, nil
}
