package experiments

import (
	"reflect"
	"testing"
)

// clusterLab is a reduced-fidelity Lab for the sweep tests: 16-core
// members keep the compute/memory draw contrast the sweep demonstrates,
// shorter runs keep it fast.
func clusterLab(workers int) *Lab {
	return NewLab(Options{
		Cores: 16, Epochs: 12, EpochNs: 5e5, Workers: workers,
	})
}

// predictiveLab mirrors the probe fidelity the sweep was tuned at:
// 8-core members (fixed by the scenario itself), 15 epochs so the step
// variant has ten post-shift epochs to resolve the hand-off.
func predictiveLab(workers int) *Lab {
	return NewLab(Options{
		Epochs: 15, EpochNs: 5e5, Workers: workers,
	})
}

// findRow returns the sweep's row for (variant, arbiter, budget,
// member), failing the test if there is none.
func findRow(t *testing.T, rows []FleetRow, variant, arb string, frac float64, member string) FleetRow {
	t.Helper()
	for _, r := range rows {
		if r.Variant == variant && r.Arbiter == arb && r.BudgetFrac == frac && r.Member == member {
			return r
		}
	}
	t.Fatalf("row %s/%s/%.2f/%s missing", variant, arb, frac, member)
	return FleetRow{}
}

// The acceptance assertion of the cluster layer: under the
// slack-reclaiming arbiter at the loose budget, the compute-bound
// member (pressed against its cap) ends the run with more watts than it
// started with, taken from the memory-bound member that could not use
// its proportional share. At the tight budget everyone is power-bound
// and no such migration happens.
func TestClusterSweepSlackShiftsTowardBottleneck(t *testing.T) {
	rows, err := clusterLab(0).FleetSweep("cluster")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 { // 5 arbiters × 2 budgets × 3 members
		t.Fatalf("sweep produced %d rows, want 30", len(rows))
	}
	find := func(arb string, frac float64, member string) FleetRow {
		return findRow(t, rows, "", arb, frac, member)
	}

	ilp := find("slack", 0.75, "ilp")
	mem := find("slack", 0.75, "mem")
	if gained := ilp.LastGrantW - ilp.FirstGrantW; gained < 2 {
		t.Errorf("slack@75%%: bottlenecked member gained %.2f W, want >= 2 W", gained)
	}
	if ceded := mem.FirstGrantW - mem.LastGrantW; ceded < 2 {
		t.Errorf("slack@75%%: memory-bound member ceded %.2f W, want >= 2 W", ceded)
	}
	// The reclaimed watts bought throughput: the bottlenecked member
	// beats its static allocation at the same budget.
	ilpStatic := find("static", 0.75, "ilp")
	if ilp.GInstr <= ilpStatic.GInstr {
		t.Errorf("slack@75%%: ilp retired %.3f Ginstr vs %.3f under static — reclaim bought nothing",
			ilp.GInstr, ilpStatic.GInstr)
	}

	// Static never moves a grant.
	for _, member := range []string{"ilp", "mem", "bl"} {
		r := find("static", 0.60, member)
		if r.FirstGrantW != r.LastGrantW {
			t.Errorf("static@60%%: member %s grant moved %.2f → %.2f W", member, r.FirstGrantW, r.LastGrantW)
		}
	}
	// Priority weights bite: ilp (weight 2) gets a larger share of the
	// tight budget than it would proportionally.
	pri := find("priority", 0.60, "ilp")
	sta := find("static", 0.60, "ilp")
	if pri.AvgGrantW <= sta.AvgGrantW {
		t.Errorf("priority@60%%: weight-2 member granted %.2f W vs %.2f under static", pri.AvgGrantW, sta.AvgGrantW)
	}
}

// The acceptance assertion of the SLO layer: on the churning fleet the
// contract-aware arbiter keeps the gold tenant inside its BIPS contract
// for at least as many epochs as the contract-blind slack arbiter at
// every budget, and strictly more at the tight one (where the mid-run
// arrival squeezes the contract hardest).
func TestSLOSweepContractBeatsSlack(t *testing.T) {
	rows, err := clusterLab(0).FleetSweep("slo")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 2 arbiters × 2 budgets × 3 members
		t.Fatalf("sweep produced %d rows, want 12", len(rows))
	}
	find := func(arb string, frac float64, member string) FleetRow {
		return findRow(t, rows, "", arb, frac, member)
	}

	for _, r := range rows {
		if r.Member == "gold" && r.TargetBIPS <= 0 {
			t.Errorf("%s@%.0f%%: gold row lost its contract", r.Arbiter, r.BudgetFrac*100)
		}
		if r.Member != "gold" && r.TargetBIPS != 0 {
			t.Errorf("%s@%.0f%%: best-effort member %s has a target", r.Arbiter, r.BudgetFrac*100, r.Member)
		}
		if r.SatisfiedFrac < 0 || r.SatisfiedFrac > 1 {
			t.Errorf("%s@%.0f%%/%s: satisfied fraction %.3f outside [0, 1]", r.Arbiter, r.BudgetFrac*100, r.Member, r.SatisfiedFrac)
		}
	}
	for _, frac := range []float64{0.55, 0.70} {
		slo := find("slo", frac, "gold")
		slack := find("slack", frac, "gold")
		if slo.SatisfiedFrac < slack.SatisfiedFrac {
			t.Errorf("budget %.0f%%: slo satisfied %.3f < slack %.3f — contract-aware arbiter lost to the blind one",
				frac*100, slo.SatisfiedFrac, slack.SatisfiedFrac)
		}
	}
	sloTight := find("slo", 0.55, "gold")
	slackTight := find("slack", 0.55, "gold")
	if sloTight.SatisfiedFrac <= slackTight.SatisfiedFrac {
		t.Errorf("tight budget: slo satisfied %.3f, slack %.3f — want a strict win",
			sloTight.SatisfiedFrac, slackTight.SatisfiedFrac)
	}
}

// The acceptance assertion of the predictive arbiter: on the step
// variant — donors' draw collapses mid-run — the forecast-driven
// arbiter hands the freed watts to the power-bound surge tenant
// strictly faster than the reactive slack reclaimer, at both budgets,
// and no grant ever leaves a member's [floor, peak] corridor.
func TestPredictiveSweepReclaimsFaster(t *testing.T) {
	rows, err := predictiveLab(0).FleetSweep("predictive")
	if err != nil {
		t.Fatalf("predictive sweep: %v", err)
	}
	if len(rows) != 24 { // 2 variants × 2 budgets × 2 arbiters × 3 members
		t.Fatalf("got %d rows, want 24", len(rows))
	}

	// No grant may leave [floor, peak], under either arbiter: the
	// clamp net is what makes a mispredicting forecaster safe to run.
	ttr := map[[3]string]int{}
	for _, r := range rows {
		if r.FloorViolations != 0 || r.ClampViolations != 0 {
			t.Errorf("%s/%s@%.1f%% member %s: %d floor / %d clamp violations, want none",
				r.Variant, r.Arbiter, r.BudgetFrac*100, r.Member,
				r.FloorViolations, r.ClampViolations)
		}
		if r.AvgPowerW <= 0 || r.GInstr <= 0 {
			t.Errorf("%s/%s@%.1f%% member %s: degenerate row %+v",
				r.Variant, r.Arbiter, r.BudgetFrac*100, r.Member, r)
		}
		key := [3]string{r.Variant, r.Arbiter, r.Member}
		if r.Variant == "step" && r.Member == "surge" {
			// Two budgets per (variant, arbiter); sum the surge
			// tenant's throttled epochs across them.
			ttr[key] += r.TimeToReclaim
		}
	}
	slack := ttr[[3]string{"step", "slack", "surge"}]
	pred := ttr[[3]string{"step", "predictive", "surge"}]
	if pred >= slack {
		t.Errorf("step variant: predictive time-to-reclaim %d epochs, slack %d — want strictly fewer", pred, slack)
	}
	if slack == 0 {
		t.Errorf("step variant: slack surge tenant never throttled post-shift — budgets are outside the hand-off window")
	}
}

// A fleet scenario's rows are identical at any worker count:
// parallelFor assembles results in submission order and every cluster
// runs with its own single-worker coordinator. Short runs of tiny
// epochs keep the churn (arrive at epoch 1, depart at 2) and the phase
// shifts while costing a fraction of a full sweep.
func checkFleetDeterministicAcrossWorkers(t *testing.T, name string) {
	t.Helper()
	opts := func(workers int) Options {
		return Options{Epochs: 4, EpochNs: 1e5, Workers: workers}
	}
	serial, err := NewLab(opts(1)).FleetSweep(name)
	if err != nil {
		t.Fatalf("%s serial: %v", name, err)
	}
	parallel, err := NewLab(opts(4)).FleetSweep(name)
	if err != nil {
		t.Fatalf("%s parallel: %v", name, err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("%s: rows differ between Workers=1 and Workers=4:\n serial: %+v\nparallel: %+v", name, serial, parallel)
	}
}

func TestClusterSweepDeterministicAcrossWorkers(t *testing.T) {
	checkFleetDeterministicAcrossWorkers(t, "cluster")
}

func TestSLOSweepDeterministicAcrossWorkers(t *testing.T) {
	checkFleetDeterministicAcrossWorkers(t, "slo")
}

func TestPredictiveSweepDeterministicAcrossWorkers(t *testing.T) {
	checkFleetDeterministicAcrossWorkers(t, "predictive")
}

// Every registered scenario has a determinism test above; a new one
// must get its own, and an unknown name is an error.
func TestFleetSweepScenarios(t *testing.T) {
	want := map[string]bool{"cluster": true, "slo": true, "predictive": true}
	for name := range fleetScenarios {
		if !want[name] {
			t.Errorf("fleet scenario %q has no determinism test", name)
		}
	}
	if len(fleetScenarios) != len(want) {
		t.Errorf("fleetScenarios has %d entries, want %d", len(fleetScenarios), len(want))
	}
	if _, err := NewLab(Options{Epochs: 4, EpochNs: 1e5, Workers: 1}).FleetSweep("nope"); err == nil {
		t.Error("unknown fleet scenario accepted")
	}
}
