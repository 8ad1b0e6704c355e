package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/policy"
	"repro/internal/runner"
)

// sim_mix16: one caller runs capped 16-core sessions on the live
// simulator, one after the other, cycling over four Table III mixes.
const (
	simCores   = 16
	simEpochMs = 1.0
	// simEpochs is the length of one session. The budget steps down
	// from budgetFrac to simStepFrac at the middle epoch, so each
	// session also tracks a moving cap (the paper's Fig. 5).
	simEpochs   = 12
	simStepFrac = 0.5
)

// simMixes are one mix of each Table III class. Host cost per simulated
// epoch follows memory intensity (ILP1 cheapest, MEM1 dearest), so
// together they split cpusim time from memsim time.
var simMixes = []string{"ILP1", "MID1", "MEM1", "MIX3"}

type simState struct {
	cfgs  []runner.Config // capped, in simMixes order; Policy set per session
	base  [][]float64     // uncapped per-core instructions up to the budget step, same order
	order []int           // the seed's cycle order over simMixes
}

// simSetup builds the uncapped baselines of the four configurations,
// over the epochs before the budget step: normalised performance is
// taken under the first budget only, which halves the set-up.
func simSetup(e *env) (any, error) {
	st := &simState{order: e.rng().Perm(len(simMixes))}
	for k, name := range simMixes {
		cfg := runner.Config{
			Sim:        simConfig(simCores, simEpochMs, simSeed(k)),
			Mix:        mustMix(name),
			BudgetFrac: 1,
			Epochs:     simEpochs / 2,
		}
		base, err := runner.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", name, err)
		}
		cfg.BudgetFrac, cfg.Epochs = budgetFrac, simEpochs
		st.cfgs = append(st.cfgs, cfg)
		st.base = append(st.base, sumInstr(base.Epochs, simEpochs/2))
	}
	return st, nil
}

// simRun cycles over the four sessions until the deadline, always
// finishing the cycle it started so that every pass runs the same blend
// of cheap and dear epochs.
func simRun(e *env, state any) (*outcome, error) {
	st := state.(*simState)
	out := &outcome{}
	ctx := context.Background()
	var results [][]*runner.Result // per cycle, by mix; nil where the session failed
	var probes []*sessionProbe     // traced: in session order, so the first four are cycle 1's
	var hostNs [4]float64          // traced: Step time per mix
	var hostEpochs [4]int
	var newSessionNs float64
	var ms0, ms1 runtime.MemStats
	var allocBytes uint64
	sessions := 0

	start := time.Now()
	deadline := e.deadline()
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		cycleRes := make([]*runner.Result, len(simMixes))
		for _, mi := range st.order {
			cfg := st.cfgs[mi]
			p := newProbe(e.tr, sessions, layerSim, false)
			sessions++
			cfg.Policy = p.policy(policy.NewFastCap())
			var root int32 = -1
			if e.tr != nil {
				root = e.tr.begin(layerRunner, opNewSession, -1, p.id)
			}
			t0 := time.Now()
			ses, err := runner.NewSession(cfg, p.options()...)
			t1 := time.Now()
			if e.tr != nil {
				e.tr.end(root)
				newSessionNs += float64(t1.Sub(t0))
				runtime.ReadMemStats(&ms0)
			}
			if !out.op(err) {
				continue
			}
			prev := t1
			for ep := 0; ep < simEpochs; ep++ {
				if ep == simEpochs/2 {
					_ = ses.SetBudgetFrac(simStepFrac) // a constant inside (0, 1]
					prev = time.Now()
				}
				p.stepBegin(-1)
				_, err := ses.Step(ctx)
				p.stepEnd()
				now := time.Now()
				if !out.op(err) {
					break
				}
				d := now.Sub(prev)
				out.epoch.add(mi, d)
				if ep == simEpochs/2 {
					out.retarget.add(mi, d)
				}
				hostNs[mi] += float64(d)
				hostEpochs[mi]++
				out.epochs++
				prev = now
			}
			if e.tr != nil {
				runtime.ReadMemStats(&ms1)
				allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				probes = append(probes, p)
			}
			cycleRes[mi] = ses.Result()
		}
		results = append(results, cycleRes)
	}
	out.wall = time.Since(start)

	// Output checks, after the clock stopped: every later cycle must be
	// byte-identical to the first, and the first feeds the fidelity
	// numbers — in mix order, so that they add up the same way under
	// every seed.
	first := make([][]byte, len(simMixes)) // cycle 1's records per mix, as JSON
	for c, cycleRes := range results {
		for mi, res := range cycleRes {
			if res == nil {
				continue // the session failed, and was counted
			}
			b, err := json.Marshal(res.Epochs)
			if err != nil {
				return nil, err
			}
			if c == 0 {
				first[mi] = b
				for _, rec := range res.Epochs {
					out.fid.capEpoch(rec.Epoch, rec.AvgPowerW, rec.BudgetW)
				}
				out.op(out.fid.perf(sumInstr(res.Epochs, simEpochs/2), st.base[mi]))
				continue
			}
			var cerr error
			if !bytes.Equal(b, first[mi]) {
				cerr = fmt.Errorf("sim_mix16: cycle %d %s differs from cycle 1", c+1, simMixes[mi])
			}
			out.op(cerr)
		}
	}

	if e.tr != nil {
		var instr float64
		for _, p := range probes {
			instr += p.instr
		}
		// The simulated work of one cycle, added up in mix order: the two
		// counts that must repeat exactly, whatever the seed's order and
		// however many cycles the pass had time for.
		if len(probes) >= len(simMixes) {
			byMix := make([]*sessionProbe, len(simMixes))
			for k, mi := range st.order {
				byMix[mi] = probes[k]
			}
			var cycleInstr float64
			var cycleMisses int64
			for _, p := range byMix {
				cycleInstr += p.instr
				cycleMisses += p.misses
			}
			cycleEpochs := float64(len(simMixes) * simEpochs)
			out.setLayer("cpusim.instr_per_epoch", cycleInstr/cycleEpochs)
			out.setLayer("memsim.requests_per_epoch", float64(cycleMisses)/cycleEpochs)
		}
		ep := float64(out.epochs)
		for mi, name := range simMixes {
			out.setLayer("sim.host_us_per_epoch."+name, hostNs[mi]/float64(hostEpochs[mi])/1e3)
		}
		out.setLayer("sim.minstr_per_host_s", instr/1e6/out.wall.Seconds())
		out.setLayer("runner.new_session_us", newSessionNs/float64(len(probes))/1e3)
		out.setLayer("runner.alloc_kb_per_epoch", float64(allocBytes)/1024/ep)
	}
	return out, nil
}
