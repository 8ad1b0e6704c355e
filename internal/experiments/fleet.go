package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FleetRow is one (variant, arbiter, budget, member) cell of a fleet
// sweep: what one member got, drew and retired while an arbitration
// policy split a global budget across the scenario's fleet. Every
// scenario fills every field; each renders the columns its story needs.
type FleetRow struct {
	// Variant names the scenario's phase-change shape ("step" or
	// "diurnal" in the predictive sweep); empty for scenarios without
	// variants.
	Variant string
	Arbiter string
	// BudgetFrac is the global budget as a fraction of the summed peaks
	// of the members resident at epoch 0 (a mid-run arrival adds demand,
	// not budget).
	BudgetFrac float64
	Member     string
	Mix        string
	Machine    string
	// TargetBIPS is the member's contracted throughput (0 = best
	// effort); AvgBIPS what it actually retired per epoch on average.
	TargetBIPS float64
	AvgBIPS    float64
	// SatisfiedFrac is the fraction of the member's epochs spent meeting
	// the contract (tracker hysteresis applied); 1 for uncontracted
	// members. Violations counts transitions into violation.
	SatisfiedFrac float64
	Violations    int
	// AvgGrantW / AvgPowerW / AvgSlackW average the member's grant,
	// measured draw and slack over its run.
	AvgGrantW float64
	AvgPowerW float64
	AvgSlackW float64
	// FirstGrantW and LastGrantW bracket the run: their difference is
	// the budget the arbiter migrated to (or from) the member.
	FirstGrantW float64
	LastGrantW  float64
	// GInstr is the member's total instructions retired, in billions —
	// the throughput the grant bought.
	GInstr float64
	// NormPerf is GInstr normalized by the member's all-max baseline
	// (same machine, mix, schedule and epoch count, uncapped): 1.0 means
	// the arbiter's grant cost the member nothing. 0 when the scenario
	// runs no baselines.
	NormPerf float64
	// TimeToReclaim counts the member's epochs from the variant's shift
	// on spent throttled (ThrottleFrac above the arbiters' 0.10 band):
	// how long the member waited for the watts a phase change freed.
	TimeToReclaim int
	// OvershootWEpochs integrates max(0, GrantW − PowerW) over the run —
	// watt-epochs granted above measured draw, the cost of a cushion or
	// a misprediction.
	OvershootWEpochs float64
	// FloorViolations / ClampViolations count epochs whose grant left
	// the member's [floor, peak] corridor. Must be zero: the clamp net
	// is what contains a mispredicting model.
	FloorViolations int
	ClampViolations int
}

// fleetScenario is one fleet experiment as data: who runs, under which
// arbiters, at which budgets. FleetSweep is the only code that runs
// one.
type fleetScenario struct {
	arbiters []string
	budgets  []float64
	members  []fleetMember
	// variants, if any, rerun the whole grid once per phase-change
	// shape; none means one unnamed variant.
	variants []fleetVariant
	// normPerf runs every member's all-max baseline so rows carry
	// NormPerf.
	normPerf bool
}

// fleetVariant is one phase-change shape of a scenario.
type fleetVariant struct {
	name string
	// shift is the epoch of the first phase change: TimeToReclaim
	// counts throttled epochs from here on.
	shift int
	// phases overrides the phase schedule of the members it names.
	phases map[string]workload.PhaseSchedule
}

// fleetMember is one tenant of a scenario's fleet.
type fleetMember struct {
	id     string
	mix    string
	weight float64
	cfg    sim.Config
	// sloFrac, if positive, contracts the member to that fraction of the
	// throughput its machine retires uncapped (same mix and schedule).
	sloFrac float64
	// arrive / depart are the epochs at which the member attaches to and
	// detaches from the running fleet; 0 means resident from the start
	// and to the end respectively. An arriving member runs the rest of
	// the fleet's epochs.
	arrive, depart int
}

// throttleBand is the arbiters' power-bound threshold on ThrottleFrac.
const throttleBand = 0.10

// FleetSweep runs the named fleet scenario — "cluster", "slo" or
// "predictive", see fleetScenarios — under each of its arbiters at each
// of its budgets. Clusters fan out on the Lab's worker pool in
// variant → budget → arbiter order; rows are assembled in submission
// order, so output is identical at any worker count.
func (l *Lab) FleetSweep(name string) ([]FleetRow, error) {
	build, ok := fleetScenarios[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown fleet scenario %q", name)
	}
	sc := build(l.Opt)
	variants := sc.variants
	if len(variants) == 0 {
		variants = []fleetVariant{{}}
	}
	var jobs []fleetJob
	for _, v := range variants {
		slots := make([]fleetSlot, len(sc.members))
		for k, m := range sc.members {
			if p, ok := v.phases[m.id]; ok {
				m.cfg.PhaseSchedule = p
			}
			mix, err := workload.MixByName(m.mix)
			if err != nil {
				return nil, err
			}
			slots[k] = fleetSlot{fleetMember: m, run: runner.Config{
				Sim: m.cfg, Mix: mix, BudgetFrac: 1, Epochs: l.Opt.Epochs - m.arrive,
			}}
			if !sc.normPerf && m.sloFrac <= 0 {
				continue
			}
			// The shared cache dedups across the jobs (and with any
			// other Lab in the process), so each member simulates its
			// all-max baseline at most once.
			res, err := runner.SharedBaselines.Run(slots[k].run)
			if err != nil {
				return nil, fmt.Errorf("%s baseline %s: %w", name, m.id, err)
			}
			for _, instr := range res.TotalInstr {
				slots[k].base += instr
			}
			if slots[k].base <= 0 {
				return nil, fmt.Errorf("%s baseline %s made no progress", name, m.id)
			}
		}
		for _, frac := range sc.budgets {
			for _, arb := range sc.arbiters {
				jobs = append(jobs, fleetJob{variant: v, slots: slots, arb: arb, frac: frac})
			}
		}
	}

	rows := make([][]FleetRow, len(jobs))
	err := l.parallelFor(len(jobs), func(i int) error {
		j := jobs[i]
		out, drawFrac, err := j.run()
		if err != nil {
			return fmt.Errorf("%s %s/%s@%.1f%%: %w", name, j.variant.name, j.arb, j.frac*100, err)
		}
		rows[i] = out
		l.log("ran %s %-7s %-10s budget=%.1f%%  worst Σdraw/budget %.4f",
			name, j.variant.name, j.arb, j.frac*100, drawFrac)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var flat []FleetRow
	for _, r := range rows {
		flat = append(flat, r...)
	}
	return flat, nil
}

// fleetSlot is a scenario member with its variant's phases applied.
type fleetSlot struct {
	fleetMember
	run  runner.Config // the member's run, uncapped and policy-less
	base float64       // all-max instructions over the run; 0 = not run
}

// fleetJob is one cluster run of a scenario.
type fleetJob struct {
	variant fleetVariant
	slots   []fleetSlot
	arb     string
	frac    float64
}

// fleetAcc accumulates one member's epochs of a cluster run.
type fleetAcc struct {
	peak                                  float64
	grant, power, slack, instr, overshoot float64
	first, last, target                   float64
	epochs, satisfied, violations         int
	throttled, floor, clamp               int
}

// run steps one cluster to completion — members attaching and
// detaching at their epochs, and stepping serially inside the
// coordinator since the Lab's pool already runs whole clusters in
// parallel — and returns one row per member in scenario order, plus
// the fleet's worst measured draw over the global budget from epoch 2
// on (the arbiters cap the summed grants; nothing caps the summed
// draw).
func (j fleetJob) run() ([]FleetRow, float64, error) {
	accs := make(map[string]*fleetAcc, len(j.slots))
	// open starts slot k's capping session, with a contract of sloFrac
	// of its uncapped throughput.
	open := func(k int) (cluster.Member, error) {
		s := j.slots[k]
		cfg := s.run
		cfg.Policy = policy.NewFastCap()
		ses, err := runner.NewSession(cfg)
		if err != nil {
			return cluster.Member{}, fmt.Errorf("member %s: %w", s.id, err)
		}
		accs[s.id] = &fleetAcc{peak: ses.PeakPowerW()}
		m := cluster.Member{ID: s.id, Weight: s.weight, Session: ses}
		if s.sloFrac > 0 {
			m.TargetBIPS = s.sloFrac * s.base / float64(cfg.Epochs) / s.cfg.EpochNs
		}
		return m, nil
	}
	var resident []cluster.Member
	basis := 0.0
	for k, s := range j.slots {
		if s.arrive > 0 {
			continue
		}
		m, err := open(k)
		if err != nil {
			return nil, 0, err
		}
		basis += accs[s.id].peak
		resident = append(resident, m)
	}
	arb, ok := cluster.ArbiterByName(j.arb)
	if !ok {
		return nil, 0, fmt.Errorf("unknown arbiter %q", j.arb)
	}
	coord, err := cluster.New(cluster.Config{
		BudgetW: j.frac * basis, Arbiter: arb, Workers: 1,
	}, resident)
	if err != nil {
		return nil, 0, err
	}

	drawFrac := 0.0
	for e := 0; ; e++ {
		for k, s := range j.slots {
			if e > 0 && s.arrive == e {
				m, err := open(k)
				if err == nil {
					err = coord.Attach(m)
				}
				if err != nil {
					return nil, 0, fmt.Errorf("attach %s: %w", s.id, err)
				}
			}
			if e > 0 && s.depart == e {
				if _, err := coord.Detach(s.id); err != nil {
					return nil, 0, fmt.Errorf("detach %s: %w", s.id, err)
				}
			}
		}
		rec, err := coord.Step(context.Background())
		if errors.Is(err, cluster.ErrDone) {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		draw := 0.0
		for _, mg := range rec.Members {
			a := accs[mg.ID]
			if a.epochs == 0 {
				a.first = mg.GrantW
			}
			draw += mg.PowerW
			a.grant += mg.GrantW
			a.power += mg.PowerW
			a.slack += mg.SlackW
			a.instr += mg.Instr
			if over := mg.GrantW - mg.PowerW; over > 0 {
				a.overshoot += over
			}
			a.last = mg.GrantW
			a.target = mg.TargetBIPS
			a.epochs++
			if mg.TargetBIPS <= 0 || !mg.SLOViolated {
				a.satisfied++
			}
			if rec.Epoch >= j.variant.shift && mg.ThrottleFrac > throttleBand {
				a.throttled++
			}
			if mg.GrantW < cluster.DefaultFloorFrac*a.peak-1e-9 {
				a.floor++
			}
			if mg.GrantW > a.peak+1e-9 {
				a.clamp++
			}
		}
		if rec.Epoch >= 2 && draw/rec.BudgetW > drawFrac {
			drawFrac = draw / rec.BudgetW
		}
		for _, ev := range rec.Events {
			if ev.Type == cluster.SLOViolated {
				accs[ev.Member].violations++
			}
		}
	}

	out := make([]FleetRow, len(j.slots))
	for k, s := range j.slots {
		a := accs[s.id]
		if a == nil || a.epochs == 0 {
			return nil, 0, fmt.Errorf("member %s never ran", s.id)
		}
		n := float64(a.epochs)
		machine := fmt.Sprintf("%d-core", s.cfg.Cores)
		if s.cfg.Machine != nil {
			machine = s.cfg.Machine.Name
		}
		out[k] = FleetRow{
			Variant: j.variant.name, Arbiter: j.arb, BudgetFrac: j.frac,
			Member: s.id, Mix: s.mix, Machine: machine,
			TargetBIPS: a.target, AvgBIPS: a.instr / n / s.cfg.EpochNs,
			SatisfiedFrac: float64(a.satisfied) / n, Violations: a.violations,
			AvgGrantW: a.grant / n, AvgPowerW: a.power / n, AvgSlackW: a.slack / n,
			FirstGrantW: a.first, LastGrantW: a.last, GInstr: a.instr / 1e9,
			TimeToReclaim: a.throttled, OvershootWEpochs: a.overshoot,
			FloorViolations: a.floor, ClampViolations: a.clamp,
		}
		if s.base > 0 {
			out[k].NormPerf = a.instr / s.base
		}
	}
	return out, drawFrac, nil
}
