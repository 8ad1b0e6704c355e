package main

import "fmt"

// metricSpec describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, measured at the boundary its caller
// stands at (see README.md for the per-workload definitions).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"epochs_per_s", "1/s", "higher", 0.10},
	{"epoch_p50_ms", "ms", "lower", 0.15},
	{"epoch_p95_ms", "ms", "lower", 0.25},
	{"retarget_p50_ms", "ms", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"cap_peak_pct", "%", "lower", 0.01},
	{"cap_error_pct", "%", "lower", 0.05},
	{"fairness_spread_pct", "%", "lower", 0.05},
	{"norm_perf_pct", "%", "higher", 0.01},
}

// perLayer are the metrics of single layers, reported by the traced
// pass. The list is built in init from the families below.
var perLayer []metricSpec

func init() {
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			perLayer = append(perLayer, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	add("us", "lower", "core.solve_us.n16", "core.solve_us.n32", "core.solve_us.n64", "core.solve_us.n256", "core.quantize_us.n64")
	add("count", "lower", "core.solve_evals.n64")
	add("us", "lower", "policy.decide_us.n16", "policy.decide_us.n32", "policy.decide_us.n64", "policy.decide_us.n256",
		"policy.decide_us.hetero16", "policy.decide_us.eqlpwr64", "policy.decide_us.eqlfreq64")
	add("count", "lower", "policy.decide_allocs.n64")
	add("ratio", "lower", "policy.decide_paper_ratio.n16", "policy.decide_paper_ratio.n32", "policy.decide_paper_ratio.n64")
	add("us", "lower", "policy.decide_us_per_epoch")
	add("ns", "lower", "engine.ns_per_event")
	add("us", "lower", "sim.run_profile_us_per_epoch", "sim.apply_us_per_epoch", "sim.finish_epoch_us_per_epoch",
		"sim.host_us_per_epoch.ILP1", "sim.host_us_per_epoch.MID1", "sim.host_us_per_epoch.MEM1", "sim.host_us_per_epoch.MIX3")
	add("1/s", "higher", "sim.minstr_per_host_s")
	add("us", "lower", "sim.new_us")
	add("count", "higher", "cpusim.instr_per_epoch", "memsim.requests_per_epoch")
	add("us", "lower", "runner.step_self_us_per_epoch", "runner.step_us_per_epoch.n16", "runner.step_us_per_epoch.n32",
		"runner.step_us_per_epoch.n64", "runner.step_us_per_epoch.hetero16", "runner.new_session_us")
	add("KB", "lower", "runner.alloc_kb_per_epoch")
	add("us", "lower", "replay.self_us_per_epoch", "workload.instantiate_us.n16")
	add("1/s", "higher", "serve.manager_epochs_per_s")
	add("us", "lower", "serve.solo_us_per_epoch", "serve.http_overhead_us_per_epoch", "serve.create_us.manager")
	add("ms", "lower", "serve.setbudget_p50_ms.manager", "serve.stream_open_p50_ms", "serve.result_p50_ms", "serve.delete_p50_ms",
		"serve.create_p50_ms.http", "serve.create_p95_ms.http", "serve.first_epoch_p50_ms.http", "serve.retarget_p95_ms.http")
	add("B", "lower", "serve.stream_bytes_per_epoch")
	add("count", "higher", "serve.epochs_stepped")
	add("ns", "lower", "metrics.observe_ns")
	add("us", "lower", "metrics.expose_us")
	for _, arb := range []string{"static", "slack", "priority", "slo", "predictive"} {
		for _, n := range []int{8, 64} {
			add("ns", "lower", fmt.Sprintf("cluster.rebalance_ns.%s.n%d", arb, n))
		}
	}
	add("us", "lower", "cluster.step_self_us_per_epoch", "cluster.step_us_per_epoch.w1", "cluster.new_us")
	add("B", "lower", "cluster.alloc_b_per_epoch")
	add("ns", "lower", "dist.encode_ns.grant", "dist.encode_ns.report", "dist.decode_ns.grant", "dist.decode_ns.report")
	add("count", "lower", "dist.frames_per_epoch")
	add("B", "lower", "dist.bytes_per_epoch")
	add("us", "lower", "dist.self_us_per_epoch")
	add("B", "lower", "dist.alloc_b_per_epoch")
	add("%", "lower", "trace.overhead_pct")
}

// workloadSpec is one named workload: how it is set up (timed, several
// times a run) and how one pass of it runs.
type workloadSpec struct {
	Name  string
	Why   string
	setup func(e *env) (any, error)
	run   func(e *env, state any) (*outcome, error)
	// discard releases a set-up that will not be run (listeners, worker
	// pools); nil when a set-up holds only memory.
	discard func(state any)
}

var workloads = []workloadSpec{
	{Name: "sim_mix16", setup: simSetup, run: simRun,
		Why: "simulator-bound: live 16-core sessions, where sim/engine/cpusim/memsim are ~99% of an epoch and simulated cap and fairness are exact"},
	{Name: "ctl_replay", setup: ctlSetup, run: ctlRun,
		Why: "controller-bound: sessions over recorded 16/32/64-core and big.LITTLE machines with budget steps, so policy+core+runner do all the work"},
	{Name: "serve_small", setup: serveSmall.setup, run: serveSmall.run, discard: discardServe,
		Why: "serving-bound: nproc closed-loop HTTP clients drive 4-core 0.1 ms tenants, so scheduler, NDJSON and control plane are a large share"},
	{Name: "serve_mix16", setup: serveMix16.setup, run: serveMix16.run, discard: discardServe,
		Why: "same handler with 16-core 1 ms tenants: throughput follows the simulator while control-plane calls contend with 5-18 ms epochs"},
	{Name: "cluster_local8", setup: fleetSetup, run: clusterRun,
		Why: "coordinator-bound: cluster.Coordinator.Step over 8 replay-backed members with churn and budget steps, members cost microseconds"},
	{Name: "dist_simnet8", setup: fleetSetup, run: distRun,
		Why: "wire-bound: the same fleet through dist.Coordinator.Run over SimNet, so codec, frames and the barrier are the delta over cluster_local8"},
}

func discardServe(state any) { state.(*serveState).close() }

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
