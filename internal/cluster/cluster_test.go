package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cpusim"
	"repro/internal/dvfs"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sessionSpec describes one member session so tests can build the exact
// same session twice (determinism runs) without sharing state.
type sessionSpec struct {
	mix    string
	cores  int
	epochs int
	seed   int64
	pol    func() policy.Policy
	mach   *sim.MachineSpec
}

func (sp sessionSpec) build(t *testing.T) *runner.Session {
	t.Helper()
	mix, err := workload.MixByName(sp.mix)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.DefaultConfig(sp.cores)
	sc.EpochNs = 5e5
	sc.ProfileNs = 5e4
	if sp.seed != 0 {
		sc.Seed = sp.seed
	}
	sc.Machine = sp.mach
	var pol policy.Policy
	if sp.pol != nil {
		pol = sp.pol()
	}
	s, err := runner.NewSession(runner.Config{Sim: sc, Mix: mix, BudgetFrac: 1, Epochs: sp.epochs, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bigLittle is a 2+2 asymmetric machine spec for mixed-machine members.
func bigLittle() *sim.MachineSpec {
	return &sim.MachineSpec{
		Name: "bigLITTLE-2+2",
		Classes: []sim.CoreClass{
			{Name: "big", Count: 2},
			{Name: "little", Count: 2,
				Ladder:       dvfs.EfficiencyCoreLadder(),
				Power:        cpusim.PowerConfig{DynMaxW: 1.5, StaticW: 0.2, GateFrac: 0.12},
				ExecCPIScale: 1.25},
		},
	}
}

func fastcap() policy.Policy { return policy.NewFastCap() }

// runCluster drives a coordinator to ErrDone and returns every record
// plus the final results.
func runCluster(t *testing.T, c *cluster.Coordinator) ([]cluster.EpochRecord, []cluster.MemberResult) {
	t.Helper()
	var recs []cluster.EpochRecord
	for {
		rec, err := c.Step(context.Background())
		if errors.Is(err, cluster.ErrDone) {
			break
		}
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		recs = append(recs, rec)
	}
	return recs, c.Results()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The golden determinism test of the cluster layer: an 8-member cluster
// of mixed machine specs (homogeneous and big.LITTLE, different mixes,
// policies, seeds and run lengths — some finishing mid-cluster) under
// the slack-reclaiming arbiter must produce byte-identical per-member
// grant streams and final results on worker pools of 1 and 8. On a
// 1-CPU host wall-clock proves nothing; bit-equality under -race is the
// parallelism proof (see FastCap repo environment note).
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	specs := []struct {
		id string
		sp sessionSpec
	}{
		{"ilp", sessionSpec{mix: "ILP1", cores: 8, epochs: 8, pol: fastcap}},
		{"mem", sessionSpec{mix: "MEM4", cores: 8, epochs: 8, pol: fastcap}},
		{"mix", sessionSpec{mix: "MIX3", cores: 4, epochs: 7, seed: 7, pol: fastcap}},
		{"mid", sessionSpec{mix: "MID1", cores: 4, epochs: 5, pol: func() policy.Policy { return policy.NewEqlPwr() }}},
		{"bl1", sessionSpec{mix: "MIX1", cores: 4, epochs: 8, mach: bigLittle(), pol: fastcap}},
		{"bl2", sessionSpec{mix: "MEM2", cores: 4, epochs: 6, seed: 42, mach: bigLittle(), pol: fastcap}},
		{"base", sessionSpec{mix: "MID2", cores: 4, epochs: 4, pol: nil}},
		{"grd", sessionSpec{mix: "ILP2", cores: 4, epochs: 8, pol: func() policy.Policy { return policy.NewGreedy() }}},
	}
	run := func(workers int) ([]byte, []byte) {
		members := make([]cluster.Member, len(specs))
		peak := 0.0
		for i, s := range specs {
			ses := s.sp.build(t)
			peak += ses.PeakPowerW()
			members[i] = cluster.Member{ID: s.id, Session: ses}
		}
		c, err := cluster.New(cluster.Config{
			BudgetW: 0.7 * peak,
			Arbiter: cluster.NewSlackReclaim(),
			Workers: workers,
		}, members)
		if err != nil {
			t.Fatal(err)
		}
		recs, results := runCluster(t, c)
		return mustJSON(t, recs), mustJSON(t, results)
	}
	recs1, res1 := run(1)
	recs8, res8 := run(8)
	if !bytes.Equal(recs1, recs8) {
		t.Error("grant streams diverged between worker pools of 1 and 8")
	}
	if !bytes.Equal(res1, res8) {
		t.Error("final results diverged between worker pools of 1 and 8")
	}
}

// The slack-reclaiming arbiter must shift budget toward the
// power-bottlenecked member: a compute-bound tenant pressed against its
// cap gains watts that a memory-bound tenant cannot use.
func TestSlackReclaimShiftsBudgetTowardBottleneck(t *testing.T) {
	ilp := sessionSpec{mix: "ILP1", cores: 16, epochs: 20, pol: fastcap}.build(t)
	mem := sessionSpec{mix: "MEM4", cores: 16, epochs: 20, pol: fastcap}.build(t)
	budget := 0.75 * (ilp.PeakPowerW() + mem.PeakPowerW())
	c, err := cluster.New(cluster.Config{BudgetW: budget, Arbiter: cluster.NewSlackReclaim(), Workers: 1},
		[]cluster.Member{{ID: "ilp", Session: ilp}, {ID: "mem", Session: mem}})
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := runCluster(t, c)
	if len(recs) != 20 {
		t.Fatalf("ran %d epochs, want 20", len(recs))
	}
	for _, rec := range recs {
		if rec.GrantedW > rec.BudgetW*(1+1e-9) {
			t.Errorf("epoch %d granted %.2f W above the %.2f W budget", rec.Epoch, rec.GrantedW, rec.BudgetW)
		}
	}
	first, last := recs[0], recs[len(recs)-1]
	grant := func(r cluster.EpochRecord, id string) float64 {
		for _, m := range r.Members {
			if m.ID == id {
				return m.GrantW
			}
		}
		t.Fatalf("member %q missing from epoch %d", id, r.Epoch)
		return 0
	}
	if gained := grant(last, "ilp") - grant(first, "ilp"); gained < 2 {
		t.Errorf("bottlenecked member gained %.2f W, want a clear reclaim (>= 2 W)", gained)
	}
	if ceded := grant(first, "mem") - grant(last, "mem"); ceded < 2 {
		t.Errorf("memory-bound member ceded %.2f W, want a clear reclaim (>= 2 W)", ceded)
	}
}

// Construction-time validation: every malformed cluster is refused with
// the typed, errors.Is-able runner.ErrInvalidConfig before any stepping.
func TestNewValidationTable(t *testing.T) {
	okMember := func(id string) cluster.Member {
		return cluster.Member{ID: id, Session: sessionSpec{mix: "MIX3", cores: 4, epochs: 2, pol: fastcap}.build(t)}
	}
	okCfg := cluster.Config{BudgetW: 50}
	cases := []struct {
		name    string
		cfg     cluster.Config
		members func() []cluster.Member
	}{
		{"zero members", okCfg, func() []cluster.Member { return nil }},
		{"NaN budget", cluster.Config{BudgetW: math.NaN()}, func() []cluster.Member { return []cluster.Member{okMember("a")} }},
		{"zero budget", cluster.Config{BudgetW: 0}, func() []cluster.Member { return []cluster.Member{okMember("a")} }},
		{"negative budget", cluster.Config{BudgetW: -40}, func() []cluster.Member { return []cluster.Member{okMember("a")} }},
		{"infinite budget", cluster.Config{BudgetW: math.Inf(1)}, func() []cluster.Member { return []cluster.Member{okMember("a")} }},
		{"nil session", okCfg, func() []cluster.Member { return []cluster.Member{{ID: "a"}} }},
		{"empty id", okCfg, func() []cluster.Member { return []cluster.Member{okMember("")} }},
		{"duplicate id", okCfg, func() []cluster.Member { return []cluster.Member{okMember("a"), okMember("a")} }},
		{"shared session", okCfg, func() []cluster.Member {
			m := okMember("a")
			return []cluster.Member{m, {ID: "b", Session: m.Session}}
		}},
		{"NaN weight", okCfg, func() []cluster.Member {
			m := okMember("a")
			m.Weight = math.NaN()
			return []cluster.Member{m}
		}},
		{"negative weight", okCfg, func() []cluster.Member {
			m := okMember("a")
			m.Weight = -1
			return []cluster.Member{m}
		}},
		{"infinite weight", okCfg, func() []cluster.Member {
			m := okMember("a")
			m.Weight = math.Inf(1)
			return []cluster.Member{m}
		}},
		{"NaN floor", okCfg, func() []cluster.Member {
			m := okMember("a")
			m.FloorFrac = math.NaN()
			return []cluster.Member{m}
		}},
		{"negative floor", okCfg, func() []cluster.Member {
			m := okMember("a")
			m.FloorFrac = -0.2
			return []cluster.Member{m}
		}},
		{"floor above one", okCfg, func() []cluster.Member {
			m := okMember("a")
			m.FloorFrac = 1.5
			return []cluster.Member{m}
		}},
	}
	for _, tc := range cases {
		if _, err := cluster.New(tc.cfg, tc.members()); !errors.Is(err, runner.ErrInvalidConfig) {
			t.Errorf("%s: New error %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

// Live retargets reject NaN, negative, zero and infinite budgets typed,
// and a valid retarget takes effect at the next epoch boundary.
func TestSetBudgetW(t *testing.T) {
	ses := sessionSpec{mix: "MIX3", cores: 4, epochs: 4, pol: fastcap}.build(t)
	c, err := cluster.New(cluster.Config{BudgetW: 40, Workers: 1},
		[]cluster.Member{{ID: "a", Session: ses}})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), -5, 0, math.Inf(1), math.Inf(-1)} {
		if err := c.SetBudgetW(bad); !errors.Is(err, runner.ErrInvalidConfig) {
			t.Errorf("SetBudgetW(%g): %v, want ErrInvalidConfig", bad, err)
		}
	}
	if _, err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.SetBudgetW(33); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.BudgetW != 33 {
		t.Errorf("epoch after retarget ran under %.1f W, want 33 W", rec.BudgetW)
	}
}

// A global budget below the sum of member floors degrades every grant
// to exactly its floor — a stable fixed point, not an oscillation —
// under every arbiter.
func TestBudgetBelowFloorsDegradesToFloors(t *testing.T) {
	for _, arbName := range []string{"static", "slack", "priority", "slo", "predictive"} {
		arb, ok := cluster.ArbiterByName(arbName)
		if !ok {
			t.Fatalf("unknown arbiter %q", arbName)
		}
		a := sessionSpec{mix: "MIX3", cores: 4, epochs: 5, pol: fastcap}.build(t)
		b := sessionSpec{mix: "MEM2", cores: 4, epochs: 5, pol: fastcap}.build(t)
		floorA, floorB := 0.3*a.PeakPowerW(), 0.3*b.PeakPowerW()
		budget := 0.5 * (floorA + floorB) // far below the floors
		c, err := cluster.New(cluster.Config{BudgetW: budget, Arbiter: arb, Workers: 1},
			[]cluster.Member{
				{ID: "a", FloorFrac: 0.3, Session: a},
				{ID: "b", FloorFrac: 0.3, Session: b},
			})
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := runCluster(t, c)
		for _, rec := range recs {
			for _, m := range rec.Members {
				want := floorA
				if m.ID == "b" {
					want = floorB
				}
				if m.GrantW != want {
					t.Errorf("%s: epoch %d member %s granted %.3f W, want its floor %.3f W",
						arbName, rec.Epoch, m.ID, m.GrantW, want)
				}
			}
		}
	}
}

// A member that finishes mid-cluster drops out of arbitration at the
// next boundary and its budget is redistributed to the survivors.
func TestMemberFinishingMidClusterFreesBudget(t *testing.T) {
	short := sessionSpec{mix: "MIX3", cores: 4, epochs: 3, pol: fastcap}.build(t)
	long := sessionSpec{mix: "ILP1", cores: 4, epochs: 6, pol: fastcap}.build(t)
	budget := 0.6 * (short.PeakPowerW() + long.PeakPowerW())
	c, err := cluster.New(cluster.Config{BudgetW: budget, Workers: 1}, // static arbiter
		[]cluster.Member{{ID: "short", Session: short}, {ID: "long", Session: long}})
	if err != nil {
		t.Fatal(err)
	}
	recs, results := runCluster(t, c)
	if len(recs) != 6 {
		t.Fatalf("cluster ran %d epochs, want 6", len(recs))
	}
	if n := len(recs[2].Members); n != 2 {
		t.Fatalf("epoch 2 has %d members, want 2", n)
	}
	if !recs[2].Members[0].Done {
		t.Error("short member's final epoch not marked Done")
	}
	if n := len(recs[3].Members); n != 1 {
		t.Fatalf("epoch 3 has %d members, want 1 (short finished)", n)
	}
	longBefore, longAfter := recs[2].Members[1], recs[3].Members[0]
	if longAfter.ID != "long" || longBefore.ID != "long" {
		t.Fatalf("unexpected member order: %q then %q", longBefore.ID, longAfter.ID)
	}
	if longAfter.GrantW <= longBefore.GrantW {
		t.Errorf("survivor grant %.2f W did not grow from %.2f W after the short member freed its budget",
			longAfter.GrantW, longBefore.GrantW)
	}
	if len(results) != 2 {
		t.Fatalf("Results has %d members, want 2", len(results))
	}
	if got := len(results[0].Result.Epochs); got != 3 {
		t.Errorf("short member result has %d epochs, want 3", got)
	}
	if got := len(results[1].Result.Epochs); got != 6 {
		t.Errorf("long member result has %d epochs, want 6", got)
	}
}

// Attach adds a member at the next epoch boundary (extending the
// cluster horizon); Detach removes one and keeps its prefix result;
// unknown detach targets fail typed.
func TestAttachDetach(t *testing.T) {
	a := sessionSpec{mix: "MIX3", cores: 4, epochs: 4, pol: fastcap}.build(t)
	b := sessionSpec{mix: "MID1", cores: 4, epochs: 4, pol: fastcap}.build(t)
	c, err := cluster.New(cluster.Config{BudgetW: 80, Workers: 1},
		[]cluster.Member{{ID: "a", Session: a}, {ID: "b", Session: b}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	late := sessionSpec{mix: "MEM2", cores: 4, epochs: 4, pol: fastcap}.build(t)
	if err := c.Attach(cluster.Member{ID: "late", Session: late}); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(cluster.Member{ID: "a", Session: sessionSpec{mix: "MIX3", cores: 4, epochs: 2, pol: fastcap}.build(t)}); !errors.Is(err, runner.ErrInvalidConfig) {
		t.Errorf("duplicate attach: %v, want ErrInvalidConfig", err)
	}
	if pending, err := c.Detach("b"); err != nil || pending {
		t.Fatalf("detach of an active member: pending=%v err=%v", pending, err)
	}
	if _, err := c.Detach("nope"); !errors.Is(err, cluster.ErrUnknownMember) {
		t.Errorf("unknown detach: %v, want ErrUnknownMember", err)
	}
	rec, err := c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Members) != 2 {
		t.Fatalf("epoch 1 has %d members, want 2 (a + late)", len(rec.Members))
	}
	if rec.Members[0].ID != "a" || rec.Members[1].ID != "late" {
		t.Errorf("epoch 1 members %q, %q; want a, late", rec.Members[0].ID, rec.Members[1].ID)
	}
	if got := c.TotalEpochs(); got != 5 {
		t.Errorf("attach did not extend the horizon: TotalEpochs %d, want 5", got)
	}
	recs, results := runCluster(t, c)
	// late attached at epoch 1 runs its 4 epochs through cluster epoch 4,
	// so epochs 2..4 remain after the two manual steps.
	if want := 3; len(recs) != want {
		t.Errorf("drained %d more epochs, want %d", len(recs), want)
	}
	if len(results) != 3 {
		t.Fatalf("Results has %d members, want 3", len(results))
	}
	if got := len(results[1].Result.Epochs); got != 1 {
		t.Errorf("detached member kept %d epochs, want its 1-epoch prefix", got)
	}
	if got := len(results[2].Result.Epochs); got != 4 {
		t.Errorf("attached member ran %d epochs, want 4", got)
	}
}

// A re-entrant Step (here: from a member observer, the same shape as a
// second driver goroutine) is refused typed instead of racing.
func TestConcurrentStepRefused(t *testing.T) {
	var c *cluster.Coordinator
	mix, err := workload.MixByName("MIX3")
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.DefaultConfig(4)
	sc.EpochNs = 5e5
	sc.ProfileNs = 5e4
	reentered := false
	ses, err := runner.NewSession(
		runner.Config{Sim: sc, Mix: mix, BudgetFrac: 1, Epochs: 2, Policy: policy.NewFastCap()},
		runner.WithObserver(func(runner.EpochRecord) {
			if _, err := c.Step(context.Background()); !errors.Is(err, cluster.ErrConcurrentStep) {
				t.Errorf("re-entrant Step: %v, want ErrConcurrentStep", err)
			}
			reentered = true
		}))
	if err != nil {
		t.Fatal(err)
	}
	c, err = cluster.New(cluster.Config{BudgetW: 40, Workers: 1},
		[]cluster.Member{{ID: "a", Session: ses}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reentered {
		t.Fatal("observer never ran")
	}
}

// Context cancellation between epochs is sticky, and the member prefix
// results stay available.
func TestContextCancellationSticky(t *testing.T) {
	ses := sessionSpec{mix: "MIX3", cores: 4, epochs: 10, pol: fastcap}.build(t)
	c, err := cluster.New(cluster.Config{BudgetW: 40, Workers: 1},
		[]cluster.Member{{ID: "a", Session: ses}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Step(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Step: %v", err)
	}
	if _, err := c.Step(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("sticky error lost: %v", err)
	}
	results := c.Results()
	if got := len(results[0].Result.Epochs); got != 1 {
		t.Errorf("prefix result has %d epochs, want 1", got)
	}
}

// Detaching the longest-running member shrinks the horizon at the next
// boundary — TotalEpochs reports the real remaining run, so a
// supervisor's final-epoch checks cannot accept operations that will
// never apply.
func TestDetachShrinksHorizon(t *testing.T) {
	long := sessionSpec{mix: "ILP1", cores: 4, epochs: 10, pol: fastcap}.build(t)
	short := sessionSpec{mix: "MIX3", cores: 4, epochs: 4, pol: fastcap}.build(t)
	c, err := cluster.New(cluster.Config{BudgetW: 80, Workers: 1},
		[]cluster.Member{{ID: "long", Session: long}, {ID: "short", Session: short}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TotalEpochs(); got != 10 {
		t.Fatalf("initial horizon %d, want 10", got)
	}
	if _, err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Detach("long"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalEpochs(); got != 4 {
		t.Errorf("horizon after detaching the long member: %d, want 4 (short's run)", got)
	}
	recs, _ := runCluster(t, c)
	if want := 2; len(recs) != want { // epochs 2..3 remain
		t.Errorf("drained %d more epochs, want %d", len(recs), want)
	}
}

// Membership operations on a finished cluster fail typed instead of
// queuing a member that would never run (the attach would otherwise be
// silently ignored — no boundary remains to apply it).
func TestAttachDetachAfterDone(t *testing.T) {
	ses := sessionSpec{mix: "MIX3", cores: 4, epochs: 2, pol: fastcap}.build(t)
	c, err := cluster.New(cluster.Config{BudgetW: 40, Workers: 1},
		[]cluster.Member{{ID: "a", Session: ses}})
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, c)
	late := sessionSpec{mix: "MID1", cores: 4, epochs: 2, pol: fastcap}.build(t)
	if err := c.Attach(cluster.Member{ID: "late", Session: late}); !errors.Is(err, cluster.ErrDone) {
		t.Errorf("attach after done: %v, want ErrDone", err)
	}
	if _, err := c.Detach("a"); !errors.Is(err, cluster.ErrDone) {
		t.Errorf("detach after done: %v, want ErrDone", err)
	}
}

// sloppyArbiter exercises the coordinator's defense against custom
// Arbiter implementations: out-of-range grants, then a NaN grant.
type sloppyArbiter struct{ epoch int }

func (*sloppyArbiter) Name() string { return "sloppy" }

func (*sloppyArbiter) Forget(string) {}

func (a *sloppyArbiter) Rebalance(budgetW float64, _ []string, _ []Observation, grants []float64) cluster.RoundStats {
	defer func() { a.epoch++ }()
	for i := range grants {
		switch a.epoch {
		case 0:
			grants[i] = -50 // below every floor
		case 1:
			grants[i] = budgetW * 10 // far above every peak
		default:
			grants[i] = math.NaN()
		}
	}
	return cluster.RoundStats{}
}

// Alias the exported Observation type for the custom-arbiter test.
type Observation = cluster.Observation

// A custom arbiter returning out-of-range grants is clamped into
// [floor, peak] — the cluster keeps running — while a NaN grant is a
// typed, sticky arbiter bug.
func TestCoordinatorClampsCustomArbiterGrants(t *testing.T) {
	ses := sessionSpec{mix: "MIX3", cores: 4, epochs: 5, pol: fastcap}.build(t)
	peak := ses.PeakPowerW()
	c, err := cluster.New(cluster.Config{BudgetW: 40, Arbiter: &sloppyArbiter{}, Workers: 1},
		[]cluster.Member{{ID: "a", FloorFrac: 0.2, Session: ses}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Step(context.Background())
	if err != nil {
		t.Fatalf("below-floor grant epoch: %v", err)
	}
	if got, want := rec.Members[0].GrantW, 0.2*peak; got != want {
		t.Errorf("below-floor grant clamped to %.2f W, want the %.2f W floor", got, want)
	}
	rec, err = c.Step(context.Background())
	if err != nil {
		t.Fatalf("above-peak grant epoch: %v", err)
	}
	if got := rec.Members[0].GrantW; got != peak {
		t.Errorf("above-peak grant clamped to %.2f W, want the %.2f W peak", got, peak)
	}
	if _, err := c.Step(context.Background()); !errors.Is(err, runner.ErrInvalidConfig) {
		t.Fatalf("NaN grant: %v, want ErrInvalidConfig", err)
	}
	if _, err := c.Step(context.Background()); !errors.Is(err, runner.ErrInvalidConfig) {
		t.Errorf("NaN arbiter error not sticky: %v", err)
	}
}

// Arbiters must handle an empty member list without panicking (the
// transient state between the last detach and ErrDone).
func TestArbitersEmptyObservations(t *testing.T) {
	for _, name := range []string{"static", "slack", "priority", "slo", "predictive"} {
		arb, _ := cluster.ArbiterByName(name)
		arb.Rebalance(100, nil, nil, nil) // must not panic
	}
	if _, ok := cluster.ArbiterByName("nope"); ok {
		t.Error("unknown arbiter name resolved")
	}
}

// Budget freed by a ceiling clamp must be redistributed to the other
// members, not stranded (regression: the fill used to clamp both
// directions off the same stale remainder, so extreme weight skew
// starved the light member at its floor with budget left over).
func TestFillRedistributesCeilingClampedBudget(t *testing.T) {
	arb := cluster.NewPriorityWeighted()
	obs := []cluster.Observation{
		{PeakW: 100, FloorW: 10, Weight: 1000},
		{PeakW: 100, FloorW: 10, Weight: 1},
	}
	grants := make([]float64, 2)
	arb.Rebalance(150, nil, obs, grants) // a stateless arbiter ignores ids
	if grants[0] != 100 || math.Abs(grants[1]-50) > 1e-9 {
		t.Errorf("grants %v of a 150 W budget, want [100 50] (freed ceiling budget redistributed)", grants)
	}
}

// Detaching a member whose attach has not reached a boundary yet
// revokes the attach: it never runs, never appears in Results, and the
// horizon estimate is corrected at the next boundary.
func TestDetachPendingAttachRevokes(t *testing.T) {
	a := sessionSpec{mix: "MIX3", cores: 4, epochs: 4, pol: fastcap}.build(t)
	c, err := cluster.New(cluster.Config{BudgetW: 40, Workers: 1},
		[]cluster.Member{{ID: "a", Session: a}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	late := sessionSpec{mix: "MID1", cores: 4, epochs: 8, pol: fastcap}.build(t)
	if err := c.Attach(cluster.Member{ID: "late", Session: late}); err != nil {
		t.Fatal(err)
	}
	pending, err := c.Detach("late")
	if err != nil || !pending {
		t.Fatalf("detach of a pending attach: pending=%v err=%v, want true/nil", pending, err)
	}
	rec, err := c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Members) != 1 || rec.Members[0].ID != "a" {
		t.Errorf("revoked member still ran: %+v", rec.Members)
	}
	if got := c.TotalEpochs(); got != 4 {
		t.Errorf("horizon %d after revoked attach, want 4", got)
	}
	_, results := runCluster(t, c)
	if len(results) != 1 {
		t.Errorf("Results has %d members, want 1 (revoked attach excluded)", len(results))
	}
}

// Priority weights skew shares: a weight-3 member gets three times the
// per-peak share of a weight-1 member on identical machines.
func TestPriorityWeightedShares(t *testing.T) {
	hi := sessionSpec{mix: "MIX3", cores: 4, epochs: 2, pol: fastcap}.build(t)
	lo := sessionSpec{mix: "MIX3", cores: 4, epochs: 2, pol: fastcap}.build(t)
	budget := 0.5 * (hi.PeakPowerW() + lo.PeakPowerW())
	c, err := cluster.New(cluster.Config{BudgetW: budget, Arbiter: cluster.NewPriorityWeighted(), Workers: 1},
		[]cluster.Member{
			{ID: "hi", Weight: 3, Session: hi},
			{ID: "lo", Weight: 1, Session: lo},
		})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ratio := rec.Members[0].GrantW / rec.Members[1].GrantW
	if math.Abs(ratio-3) > 1e-6 {
		t.Errorf("grant ratio %.4f, want 3 (weights 3:1 on identical machines)", ratio)
	}
}

// Steady-state arbitration must not allocate: the cluster's per-epoch
// overhead is O(members) arithmetic on pre-grown scratch.
func TestArbitersSteadyStateAllocationFree(t *testing.T) {
	obs := make([]cluster.Observation, 64)
	ids := make([]string, len(obs))
	for i := range obs {
		obs[i] = cluster.Observation{
			PeakW: 100, FloorW: 10, Weight: 1 + float64(i%3),
			GrantW: 50 + float64(i), PowerW: 40 + float64(i%7),
			ThrottleFrac: float64(i%2) * 0.5, Warm: true,
		}
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	grants := make([]float64, len(obs))
	for _, name := range []string{"static", "slack", "priority", "slo", "predictive"} {
		arb, _ := cluster.ArbiterByName(name)
		arb.Rebalance(3000, ids, obs, grants) // warm the scratch
		allocs := testing.AllocsPerRun(100, func() {
			arb.Rebalance(3000, ids, obs, grants)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per steady-state Rebalance, want 0", name, allocs)
		}
	}
}

// An attach reseeds the whole fleet, under every arbiter: the attached
// member arrives cold, and one cold member makes the round a plain
// proportional reseed that reads no grant history. So the attach
// epoch's grants must equal what a fresh arbiter of the same kind seeds
// for the same peaks, floors and budget — whatever the running arbiter
// had learned in the epochs before.
func TestAttachReseedsWholeFleet(t *testing.T) {
	for _, name := range cluster.ArbiterNames() {
		t.Run(name, func(t *testing.T) {
			specs := []sessionSpec{
				{mix: "ILP1", cores: 8, epochs: 8, pol: fastcap},
				{mix: "MEM4", cores: 8, epochs: 8, pol: fastcap},
				{mix: "MIX3", cores: 4, epochs: 8, pol: fastcap},
			}
			late := sessionSpec{mix: "MID1", cores: 4, epochs: 4, pol: fastcap}.build(t)
			members := make([]cluster.Member, len(specs))
			peaks := map[string]float64{"late": late.PeakPowerW()}
			total := 0.0
			for i, sp := range specs {
				ses := sp.build(t)
				id := fmt.Sprintf("m%d", i)
				members[i] = cluster.Member{ID: id, Weight: float64(i + 1), Session: ses}
				peaks[id] = ses.PeakPowerW()
				total += ses.PeakPowerW()
			}
			budget := 0.6 * total
			arb, _ := cluster.ArbiterByName(name)
			c, err := cluster.New(cluster.Config{BudgetW: budget, Arbiter: arb, Workers: 1}, members)
			if err != nil {
				t.Fatal(err)
			}
			// Long enough for the history-keeping arbiters to leave their
			// warm-up and move grants away from the seed.
			for e := 0; e < 4; e++ {
				if _, err := c.Step(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Attach(cluster.Member{ID: "late", Weight: 2, Session: late}); err != nil {
				t.Fatal(err)
			}
			rec, err := c.Step(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Members) != 4 {
				t.Fatalf("attach epoch has %d member lines, want 4", len(rec.Members))
			}

			ids := make([]string, len(rec.Members))
			obs := make([]cluster.Observation, len(rec.Members))
			for i, l := range rec.Members {
				w := float64(i + 1)
				if l.ID == "late" {
					w = 2
				}
				ids[i] = l.ID
				obs[i] = cluster.Observation{PeakW: peaks[l.ID], FloorW: cluster.DefaultFloorFrac * peaks[l.ID], Weight: w}
			}
			fresh, _ := cluster.ArbiterByName(name)
			want := make([]float64, len(obs))
			if err := cluster.ComputeGrants(fresh, budget, ids, obs, want); err != nil {
				t.Fatal(err)
			}
			for i, l := range rec.Members {
				if l.GrantW != want[i] {
					t.Errorf("attach epoch grant of %s = %v W, want the fresh seed %v W", l.ID, l.GrantW, want[i])
				}
			}
		})
	}
}
