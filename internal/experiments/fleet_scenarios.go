package experiments

import (
	"repro/internal/cluster"
	"repro/internal/workload"
)

// fleetScenarios are the fleet experiments FleetSweep runs by name,
// each built at the Lab's fidelity.
var fleetScenarios = map[string]func(Options) fleetScenario{
	"cluster":    clusterScenario,
	"slo":        sloScenario,
	"predictive": predictiveScenario,
}

// clusterScenario splits a datacenter-level budget across a mixed
// fleet under every arbitration policy at two global budgets (60% and
// 75% of the summed peaks). The fleet is a compute-bound 16-core
// machine (the power-hungry tenant, weight 2 for the priority arbiter),
// a memory-bound 16-core machine (the natural slack donor), and a
// big.LITTLE part running a balanced mix. At 60% every member is
// power-bound and the arbiters differ only in their shares; at 75% the
// memory-bound member cannot use its proportional share, and the
// slack-reclaiming arbiter demonstrably migrates that budget to the
// bottlenecked compute-bound member (FirstGrantW → LastGrantW).
func clusterScenario(o Options) fleetScenario {
	return fleetScenario{
		arbiters: cluster.ArbiterNames(),
		budgets:  []float64{0.60, 0.75},
		members: []fleetMember{
			{id: "ilp", mix: "ILP1", weight: 2, cfg: o.SimConfig(16)},
			{id: "mem", mix: "MEM4", weight: 1, cfg: o.SimConfig(16)},
			{id: "bl", mix: "MIX3", weight: 1, cfg: BigLittleConfig(o, 4, 4)},
		},
		normPerf: true,
	}
}

// sloScenario runs a churning three-tenant fleet under the slack and
// slo arbiters at two global budgets. The contracted tenant ("gold", a
// compute-bound machine with a diurnal phase schedule) holds a BIPS
// target of 70% of the throughput its machine retires with nobody
// throttling it; a memory-bound donor ("be") departs mid-run and a
// bursty tenant ("burst") arrives mid-run without any budget increase.
// The slack arbiter reclaims unused watts but is contract-blind; the
// slo arbiter funds the contract's estimated demand first and
// water-fills the remainder, so gold's satisfied fraction should
// dominate.
func sloScenario(o Options) fleetScenario {
	epochs := o.Epochs
	// Churn: the burst tenant arrives at a third of the run and the
	// best-effort donor departs at two thirds.
	arrive := max(epochs/3, 1)
	depart := max(2*epochs/3, arrive+1)
	// The gold tenant's diurnal phase schedule: demand rises after the
	// first quarter and relaxes in the last.
	gold := o.SimConfig(8)
	gold.PhaseSchedule = workload.PhaseSchedule{
		{Epoch: epochs / 4, Scale: 1.5},
		{Epoch: 3 * epochs / 4, Scale: 0.75},
	}
	return fleetScenario{
		arbiters: []string{"slack", "slo"},
		budgets:  []float64{0.55, 0.70},
		members: []fleetMember{
			{id: "gold", mix: "ILP1", cfg: gold, sloFrac: 0.7},
			{id: "be", mix: "MEM4", cfg: o.SimConfig(8), depart: depart},
			{id: "burst", mix: "MIX3", cfg: o.SimConfig(8), arrive: arrive},
		},
	}
}

// predictiveScenario runs a three-tenant fleet — a compute-bound surge
// tenant ("surge", ILP1) pressed against its cap and two donors
// ("don1" MIX3, "don2" MID1) whose phases go hard memory-bound —
// through two phase-changing variants at two global budgets, under the
// reactive slack arbiter and the predictive one:
//
//   - "step": both donors go memory-bound at a third of the run and
//     their draw collapses. The watts they stop drawing are the surge
//     tenant's to claim; TimeToReclaim measures the hand-off.
//   - "diurnal": the donors run a day shape — an overnight lull at a
//     quarter of the run, demand returning at three quarters.
//
// Budgets sit in the hand-off window, where the freed watts are both
// necessary and sufficient to unthrottle the surge tenant: tight
// enough that it is power-bound before the shift, loose enough that
// the donors' post-shift draw leaves it whole. The reactive arbiter
// walks a donor's grant toward its draw one gain-step per epoch; the
// predictive arbiter's demand is the forecast, whose trend term
// extrapolates the collapse, so the hand-off lands epochs earlier.
func predictiveScenario(o Options) fleetScenario {
	e := o.Epochs
	// Phase Scale multiplies memory intensity: a large scale stalls the
	// donors' cores on memory, so their power draw — and therefore
	// their demand — collapses, freeing watts the throttled surge
	// tenant is waiting for. Even at Scale 1000 an 8-core member's
	// uncapped draw only falls ~10 W (frequency-driven power dominates
	// a stalled core's budget), which is why the sweep fields two
	// donors: together they free enough to unthrottle the surge tenant
	// outright.
	donors := func(p workload.PhaseSchedule) map[string]workload.PhaseSchedule {
		return map[string]workload.PhaseSchedule{"don1": p, "don2": p}
	}
	return fleetScenario{
		arbiters: []string{"slack", "predictive"},
		budgets:  []float64{0.69, 0.705},
		members: []fleetMember{
			{id: "surge", mix: "ILP1", cfg: o.SimConfig(8)},
			{id: "don1", mix: "MIX3", cfg: o.SimConfig(8)},
			{id: "don2", mix: "MID1", cfg: o.SimConfig(8)},
		},
		variants: []fleetVariant{
			{name: "step", shift: e / 3, phases: donors(workload.PhaseSchedule{
				{Epoch: e / 3, Scale: 1000},
			})},
			{name: "diurnal", shift: e / 4, phases: donors(workload.PhaseSchedule{
				{Epoch: e / 4, Scale: 1000},  // overnight lull: draw drops
				{Epoch: 3 * e / 4, Scale: 1}, // morning: demand returns
			})},
		},
	}
}
