package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// paperDecideUs is the paper's §IV-B measurement of Algorithm 1: mean
// execution time per invocation at 16, 32 and 64 cores.
var paperDecideUs = map[int]float64{16: 33.5, 32: 64.9, 64: 133.5}

// batch is how long one timed batch of a micro row runs. Short batches
// keep a scheduler hiccup inside one batch, and the median over batches
// drops it.
const batch = 3 * time.Millisecond

// timeOp returns what one call of fn costs, in nanoseconds: the median
// over nine batches, each sized to run for about batchFor.
func timeOp(batchFor time.Duration, fn func()) float64 {
	fn() // warm scratch buffers
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= batchFor || n >= 1<<24 {
			break
		}
		n *= 2
	}
	batches := make([]float64, 9)
	for b := range batches {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = float64(time.Since(start)) / float64(n)
	}
	return median(batches)
}

// sink keeps the compiler from discarding a measured call's result.
var sink any

// heteroSnapshot is the synthetic snapshot on a 4+12 big.LITTLE
// machine: per-core ladders, little cores scaled down.
func heteroSnapshot(n int) *policy.Snapshot {
	s := experiments.SyntheticSnapshot(n, budgetFrac)
	little := dvfs.EfficiencyCoreLadder()
	s.CoreLadders = make([]*dvfs.Ladder, n)
	for i := range s.CoreLadders {
		if i < n/4 {
			s.CoreLadders[i] = s.CoreLadder
			continue
		}
		s.CoreLadders[i] = little
		s.Power.Cores[i].Scale /= 3
		s.Power.Cores[i].Static = 0.2
		s.MeasuredCoreW[i] = 1.1
		s.CurCoreSteps[i] = little.MaxStep()
	}
	s.CoreLadder = nil
	s.BudgetW = budgetFrac * s.Power.Peak()
	return s
}

// fleetObs is a fixed, mixed fleet for the arbiters: every other member
// pressed against its cap, every fourth holding a throughput contract.
func fleetObs(n int) ([]string, []cluster.Observation) {
	ids := make([]string, n)
	obs := make([]cluster.Observation, n)
	for i := range obs {
		ids[i] = fmt.Sprintf("m%02d", i)
		obs[i] = cluster.Observation{
			PeakW: 120, FloorW: 12, Weight: 1 + float64(i%3),
			GrantW: 60 + float64(i%17), PowerW: 50 + float64(i%23),
			Instr: 1e6 + float64(i)*1e4, BIPS: 2 + float64(i%5)*0.25,
			Warm: true, ThrottleFrac: float64(i%2) * 0.5,
		}
		if i%4 == 0 {
			obs[i].TargetBIPS = 2.5
		}
	}
	return ids, obs
}

// engineNsPerEvent churns timers through the event engine the way the
// simulated cores and memory controllers do: a fixed population of
// timers, each re-armed from its own callback at a seeded delay.
func engineNsPerEvent(batchFor time.Duration, seed int64) float64 {
	const timers, horizonNs = 64, 2e5
	rng := rand.New(rand.NewSource(seed))
	eng := engine.New()
	fired := 0
	ts := make([]*engine.Timer, timers)
	for i := range ts {
		i := i
		ts[i] = eng.NewTimer(func() {
			fired++
			ts[i].Reset(1 + rng.Float64()*200)
		})
		ts[i].Reset(rng.Float64() * 200)
	}
	t := 0.0
	ns := timeOp(batchFor, func() {
		t += horizonNs
		eng.RunUntil(t)
	})
	// One call advances horizonNs of virtual time; every timer fires
	// about once per 100 ns of it.
	perCall := float64(fired) / (t / horizonNs)
	return ns / perCall
}

// microSuite measures the layers that cannot be timed inside a workload
// from outside: each through its public function, on fixed inputs. The
// rows are the same on every workload.
func microSuite(batchFor time.Duration, seed int64) map[string]float64 {
	m := map[string]float64{}
	op := func(fn func()) float64 { return timeOp(batchFor, fn) }

	for _, n := range []int{16, 32, 64, 256} {
		in := experiments.SyntheticSnapshotInputs(n, budgetFrac)
		var solver core.Solver
		var res core.Result
		m[fmt.Sprintf("core.solve_us.n%d", n)] = op(func() {
			var err error
			if res, err = solver.Solve(in); err != nil {
				panic(err)
			}
		}) / 1e3
		if n == 64 {
			m["core.solve_evals.n64"] = float64(res.Evals)
			coreL, memL := dvfs.DefaultCoreLadder(), dvfs.DefaultMemLadder()
			m["core.quantize_us.n64"] = op(func() {
				sink = solver.Quantize(in, res, coreL, memL, true)
			}) / 1e3
		}
	}

	decide := func(pol policy.Policy, s *policy.Snapshot) float64 {
		return op(func() {
			d, err := pol.Decide(s)
			if err != nil {
				panic(err)
			}
			sink = d
		}) / 1e3
	}
	for _, n := range []int{16, 32, 64, 256} {
		us := decide(policy.NewFastCap(), experiments.SyntheticSnapshot(n, budgetFrac))
		m[fmt.Sprintf("policy.decide_us.n%d", n)] = us
		if paper, ok := paperDecideUs[n]; ok {
			m[fmt.Sprintf("policy.decide_paper_ratio.n%d", n)] = us / paper
		}
	}
	m["policy.decide_us.hetero16"] = decide(policy.NewFastCap(), heteroSnapshot(16))
	m["policy.decide_us.eqlpwr64"] = decide(policy.NewEqlPwr(), experiments.SyntheticSnapshot(64, budgetFrac))
	m["policy.decide_us.eqlfreq64"] = decide(policy.NewEqlFreq(), experiments.SyntheticSnapshot(64, budgetFrac))
	{
		pol, s := policy.NewFastCap(), experiments.SyntheticSnapshot(64, budgetFrac)
		if _, err := pol.Decide(s); err != nil {
			panic(err)
		}
		const runs = 200
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < runs; i++ {
			d, _ := pol.Decide(s)
			sink = d
		}
		runtime.ReadMemStats(&ms1)
		m["policy.decide_allocs.n64"] = float64(ms1.Mallocs-ms0.Mallocs) / runs
	}

	m["engine.ns_per_event"] = engineNsPerEvent(batchFor, seed)

	{
		wl, err := workload.Instantiate(mustMix("MIX3"), simCores)
		if err != nil {
			panic(err)
		}
		cfg := simConfig(simCores, simEpochMs, seed)
		m["sim.new_us"] = op(func() {
			s, err := sim.New(cfg, wl)
			if err != nil {
				panic(err)
			}
			sink = s
		}) / 1e3
		mix := mustMix("MIX3")
		m["workload.instantiate_us.n16"] = op(func() {
			w, err := workload.Instantiate(mix, simCores)
			if err != nil {
				panic(err)
			}
			sink = w
		}) / 1e3
	}

	{
		reg := metrics.NewRegistry()
		h := reg.Histogram("bench_seconds", "bench", nil)
		v := 0.0
		m["metrics.observe_ns"] = op(func() {
			v += 1e-5
			h.Observe(v)
		})
	}

	for _, name := range []string{"static", "slack", "priority", "slo", "predictive"} {
		for _, n := range []int{8, 64} {
			arb, ok := cluster.ArbiterByName(name)
			if !ok {
				panic("no arbiter " + name)
			}
			ids, obs := fleetObs(n)
			grants := make([]float64, n)
			budget := 80 * float64(n)
			// Past the forecaster's warm-up, so the steady state is timed.
			for i := 0; i < 8; i++ {
				if err := cluster.ComputeGrants(arb, budget, ids, obs, grants); err != nil {
					panic(err)
				}
			}
			m[fmt.Sprintf("cluster.rebalance_ns.%s.n%d", name, n)] = op(func() {
				if err := cluster.ComputeGrants(arb, budget, ids, obs, grants); err != nil {
					panic(err)
				}
			})
		}
	}

	msgs := map[string]dist.Msg{
		"grant":  {Type: dist.TypeGrant, Member: "a0.m2", Epoch: 1234, GrantW: 23.456789012345},
		"report": {Type: dist.TypeReport, Member: "a0.m2", Agent: "a0", Epoch: 1234, MemberEpoch: 1234, PowerW: 21.98765432101, ThrottleFrac: 0.75, Instr: 1.23456789e6},
	}
	for name, msg := range msgs {
		msg := msg
		enc, err := dist.EncodeMsg(msg)
		if err != nil {
			panic(err)
		}
		m["dist.encode_ns."+name] = op(func() {
			b, err := dist.EncodeMsg(msg)
			if err != nil {
				panic(err)
			}
			sink = b
		})
		m["dist.decode_ns."+name] = op(func() {
			d, err := dist.DecodeMsg(enc)
			if err != nil {
				panic(err)
			}
			sink = d
		})
	}
	return m
}

// exposeUs times one text exposition of reg, the scrape a monitoring
// system makes after the run.
func exposeUs(reg *metrics.Registry) float64 {
	var buf bytes.Buffer
	return timeOp(batch, func() {
		buf.Reset()
		if err := reg.WriteText(&buf); err != nil {
			panic(err)
		}
	}) / 1e3
}
