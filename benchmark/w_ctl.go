package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/runner"
)

// ctl_replay: one caller runs the controller over recorded machines.
// Nothing is simulated in the timed phase, so policy, core and runner
// do all the work.
const (
	// ctlRecorded is how many epochs of each machine the set-up records;
	// playback wraps around after them.
	ctlRecorded = 6
	// ctlBudgetEvery is how often the caller steps the budget through
	// ctlBudgets. The first entry is the recorded budget, so a session's
	// first pass over the recording reproduces the simulated run.
	ctlBudgetEvery = 100
)

var ctlBudgets = []float64{budgetFrac, 0.7, 0.5}

// ctlMachines are the recorded machines and how many epochs a session
// over each runs per round. The counts are in inverse proportion to the
// controller's cost per epoch (linear in the core count), so every
// machine gets about the same share of the timed phase.
var ctlMachines = []struct {
	name   string
	row    string // suffix of the machine's per-layer rows
	cores  int
	hetero bool
	epochs int
}{
	{"MIX3-16", "n16", 16, false, 2000},
	{"MIX3-32", "n32", 32, false, 1000},
	{"MIX3-64", "n64", 64, false, 500},
	{"bigLITTLE-4+12", "hetero16", 16, true, 2000},
}

type ctlState struct {
	machines []*machine
	order    []int
}

func ctlSetup(e *env) (any, error) {
	st := &ctlState{order: e.rng().Perm(len(ctlMachines))}
	for k, mc := range ctlMachines {
		seed := simSeed(k)
		sc := simConfig(mc.cores, 1, seed)
		if mc.hetero {
			sc = experiments.BigLittleConfig(experiments.Options{EpochNs: 1e6, Seed: seed}, 4, 12)
		}
		m, err := record(mc.name, runner.Config{Sim: sc, Mix: mustMix("MIX3"), BudgetFrac: budgetFrac, Epochs: ctlRecorded})
		if err != nil {
			return nil, err
		}
		st.machines = append(st.machines, m)
	}
	return st, nil
}

// decisionHash folds a session's decisions and predictions into one
// number, so that rounds can be compared without keeping their records.
func decisionHash(epochs []runner.EpochRecord) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range epochs {
		for _, s := range r.CoreSteps {
			put(uint64(s))
		}
		put(uint64(r.MemStep))
		put(math.Float64bits(r.PredictedPowerW))
		put(math.Float64bits(r.BudgetW))
	}
	return h.Sum64()
}

func ctlRun(e *env, state any) (*outcome, error) {
	st := state.(*ctlState)
	out := &outcome{}
	ctx := context.Background()
	firstHash := make([]uint64, len(ctlMachines))
	var probes []*sessionProbe
	stepNs := make([]float64, len(ctlMachines)) // what the caller waited for, per machine
	stepped := make([]int, len(ctlMachines))
	var newSessionNs float64
	var ms0, ms1 runtime.MemStats
	var allocBytes uint64
	sessions := 0

	// Round 1's sessions are kept for the checks after the clock stops.
	type done struct {
		mi      int
		res     *runner.Result
		applied []replay.Epoch
	}
	var finished []done

	start := time.Now()
	deadline := e.deadline()
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, mi := range st.order {
			m, n := st.machines[mi], ctlMachines[mi].epochs
			p := newProbe(e.tr, sessions, layerReplay, false)
			sessions++
			var root int32 = -1
			if e.tr != nil {
				root = e.tr.begin(layerRunner, opNewSession, -1, p.id)
			}
			t0 := time.Now()
			ses, plat, err := m.session(n, p)
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
			for ep := 0; ep < n; ep++ {
				retarget := ep > 0 && ep%ctlBudgetEvery == 0
				if retarget {
					_ = ses.SetBudgetFrac(ctlBudgets[ep/ctlBudgetEvery%len(ctlBudgets)]) // constants inside (0, 1]
					prev = time.Now()
				}
				p.stepBegin(-1)
				_, err := ses.Step(ctx)
				p.stepEnd()
				now := time.Now()
				if err != nil {
					out.op(err)
					break
				}
				d := now.Sub(prev)
				out.epoch.add(mi, d)
				stepNs[mi] += float64(d)
				stepped[mi]++
				if retarget {
					// One class per machine and budget: stepping up costs the
					// solver differently from stepping down.
					out.retarget.add(mi*len(ctlBudgets)+ep/ctlBudgetEvery%len(ctlBudgets), d)
				}
				prev = now
			}
			out.attempted++ // the session, as one operation
			out.epochs += ses.Epoch()
			if e.tr != nil {
				runtime.ReadMemStats(&ms1)
				allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				probes = append(probes, p)
			}
			res := ses.Result()
			h := decisionHash(res.Epochs)
			if round == 0 {
				firstHash[mi] = h
				finished = append(finished, done{mi, res, plat.Applied})
				continue
			}
			var cerr error
			if h != firstHash[mi] {
				cerr = fmt.Errorf("ctl_replay: round %d on %s decided differently from round 1", round+1, m.name)
			}
			out.op(cerr)
		}
	}
	out.wall = time.Since(start)

	// The first pass of a session replays the simulated run under its
	// own budget: the decisions must be the recorded ones, and then the
	// epochs are the simulated machine's and feed the fidelity numbers —
	// in machine order, so that they add up the same way under every seed.
	sort.Slice(finished, func(a, b int) bool { return finished[a].mi < finished[b].mi })
	for _, d := range finished {
		m := st.machines[d.mi]
		if !out.op(m.sameDecisions(d.applied)) {
			continue
		}
		for _, r := range d.res.Epochs[:ctlRecorded] {
			out.fid.capEpoch(r.Epoch, r.AvgPowerW, r.BudgetW)
		}
		out.op(out.fid.perf(sumInstr(d.res.Epochs, ctlRecorded), m.baseInstr))
	}

	if e.tr != nil {
		ep := float64(out.epochs)
		for mi, mc := range ctlMachines {
			out.setLayer("runner.step_us_per_epoch."+mc.row, stepNs[mi]/float64(stepped[mi])/1e3)
		}
		out.setLayer("runner.new_session_us", newSessionNs/float64(len(probes))/1e3)
		out.setLayer("runner.alloc_kb_per_epoch", float64(allocBytes)/1024/ep)
	}
	return out, nil
}
