package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/runner"
)

// DeriveBIPS is the one seam between raw epoch telemetry and every
// rate consumer (SLO tracker, predictive model, NDJSON lines): a
// zero-length or hostile epoch must yield 0, never Inf or NaN.
func TestDeriveBIPS(t *testing.T) {
	cases := []struct {
		name           string
		instr, epochNs float64
		want           float64
	}{
		{"normal", 2e6, 5e5, 4},
		{"zero epoch", 1e6, 0, 0},
		{"negative epoch", 1e6, -5e5, 0},
		{"nan epoch", 1e6, math.NaN(), 0},
		{"inf epoch", 1e6, math.Inf(1), 0},
		{"zero instr", 0, 5e5, 0},
		{"negative instr", -1e6, 5e5, 0},
		{"nan instr", math.NaN(), 5e5, 0},
		{"inf instr", math.Inf(1), 5e5, 0},
		{"both hostile", math.Inf(1), 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := cluster.DeriveBIPS(tc.instr, tc.epochNs)
			if got != tc.want {
				t.Errorf("DeriveBIPS(%g, %g) = %g, want %g", tc.instr, tc.epochNs, got, tc.want)
			}
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("DeriveBIPS(%g, %g) = %g is non-finite", tc.instr, tc.epochNs, got)
			}
		})
	}
}

// ValidateObservations is the arbitration seam's telemetry firewall:
// non-finite floats and negative progress counters fail typed, naming
// the offending member, before any arbiter model can ingest them.
func TestValidateObservations(t *testing.T) {
	good := func() []cluster.Observation {
		return []cluster.Observation{
			{PeakW: 100, FloorW: 10, Weight: 1, GrantW: 50, PowerW: 40, Instr: 1e6, BIPS: 2, Warm: true},
			{PeakW: 100, FloorW: 10, Weight: 1, GrantW: 50, PowerW: 30, Warm: true},
		}
	}
	cases := []struct {
		name   string
		mutate func(obs []cluster.Observation)
		ok     bool
	}{
		{"clean", func([]cluster.Observation) {}, true},
		{"nan power", func(o []cluster.Observation) { o[1].PowerW = math.NaN() }, false},
		{"inf peak", func(o []cluster.Observation) { o[0].PeakW = math.Inf(1) }, false},
		{"neg-inf grant", func(o []cluster.Observation) { o[1].GrantW = math.Inf(-1) }, false},
		{"nan throttle", func(o []cluster.Observation) { o[0].ThrottleFrac = math.NaN() }, false},
		{"inf bips", func(o []cluster.Observation) { o[0].BIPS = math.Inf(1) }, false},
		{"nan target", func(o []cluster.Observation) { o[0].TargetBIPS = math.NaN() }, false},
		{"negative instr", func(o []cluster.Observation) { o[1].Instr = -1 }, false},
		{"negative bips", func(o []cluster.Observation) { o[1].BIPS = -0.5 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := good()
			tc.mutate(obs)
			err := cluster.ValidateObservations([]string{"alpha", "beta"}, obs)
			if tc.ok {
				if err != nil {
					t.Fatalf("clean telemetry rejected: %v", err)
				}
				return
			}
			if !errors.Is(err, runner.ErrInvalidConfig) {
				t.Fatalf("hostile telemetry error = %v, want ErrInvalidConfig", err)
			}
		})
	}

	// The error names the offending member by id, falling back to its
	// index when ids are unknown.
	obs := good()
	obs[1].PowerW = math.NaN()
	if err := cluster.ValidateObservations([]string{"alpha", "beta"}, obs); err == nil || !strings.Contains(err.Error(), "beta") {
		t.Errorf("error %v does not name member beta", err)
	}
	if err := cluster.ValidateObservations(nil, obs); err == nil || !strings.Contains(err.Error(), "#1") {
		t.Errorf("error %v does not name member #1", err)
	}
}

// ComputeGrants — the single arbitration core both coordinators call —
// must reject hostile telemetry typed before the arbiter sees it, so
// Inf/NaN can never be laundered into grants or forecaster state.
func TestComputeGrantsRejectsHostileTelemetry(t *testing.T) {
	obs := []cluster.Observation{
		{PeakW: 100, FloorW: 10, Weight: 1, GrantW: 50, PowerW: math.Inf(1), Warm: true},
	}
	grants := make([]float64, 1)
	err := cluster.ComputeGrants(cluster.NewPredictiveArbiter(), 100, []string{"m"}, obs, grants)
	if !errors.Is(err, runner.ErrInvalidConfig) {
		t.Fatalf("ComputeGrants on Inf draw = %v, want ErrInvalidConfig", err)
	}
}

// The cold-start signal is the explicit Warm flag, not a GrantW == 0
// sentinel: a warm member legitimately granted zero watts (floor 0,
// budget claimed by a throttled peer) must NOT re-trigger proportional
// reseeding, while a genuinely cold member still must.
func TestWarmZeroGrantDoesNotReseed(t *testing.T) {
	mk := func(warmA bool) []cluster.Observation {
		return []cluster.Observation{
			{PeakW: 100, FloorW: 0, Weight: 1, GrantW: 0, PowerW: 0, Warm: warmA},
			{PeakW: 100, FloorW: 10, Weight: 1, GrantW: 90, PowerW: 85, ThrottleFrac: 0.5, Warm: true},
		}
	}
	arb := cluster.NewSlackReclaim()
	grants := make([]float64, 2)

	// Warm zero-grant member: the reactive rule keeps it at its 0 W
	// demand and the throttled peer claims the whole 100 W budget.
	arb.Rebalance(100, nil, mk(true), grants) // slack keeps no history: ids unused
	if grants[0] != 0 || grants[1] != 100 {
		t.Errorf("warm zero-grant member reseeded: grants %v, want [0 100]", grants)
	}

	// The same shape with the member genuinely cold is a full
	// proportional reseed: equal peaks split the budget evenly.
	arb.Rebalance(100, nil, mk(false), grants)
	if grants[0] != 50 || grants[1] != 50 {
		t.Errorf("cold member not reseeded: grants %v, want [50 50]", grants)
	}
}

// predFixture drives an arbiter over a scripted draw sequence, feeding
// each round's grants back as the next round's GrantW — the closed loop
// a live coordinator runs.
type predFixture struct {
	obs    []cluster.Observation
	ids    []string
	grants []float64
	stats  cluster.RoundStats // what the last round reported
}

func newPredFixture(n int, budget float64) *predFixture {
	f := &predFixture{
		obs:    make([]cluster.Observation, n),
		ids:    make([]string, n),
		grants: make([]float64, n),
	}
	for i := range f.obs {
		f.obs[i] = cluster.Observation{PeakW: 100, FloorW: 10, Weight: 1, GrantW: budget / float64(n), Warm: true}
		f.ids[i] = fmt.Sprintf("m%d", i)
	}
	return f
}

func (f *predFixture) round(t *testing.T, arb cluster.Arbiter, budget float64, draws ...float64) []float64 {
	t.Helper()
	for i, d := range draws {
		f.obs[i].PowerW = d
		if d >= f.obs[i].GrantW*0.999 {
			f.obs[i].ThrottleFrac = 0.5 // pressed against its cap
		} else {
			f.obs[i].ThrottleFrac = 0
		}
	}
	// The arbiter contract directly: the fixture's telemetry is clean and
	// the built-in arbiters keep grants inside [floor, peak], so
	// ComputeGrants' validation and clamp would change nothing here.
	f.stats = arb.Rebalance(budget, f.ids, f.obs, f.grants)
	for i := range f.obs {
		f.obs[i].GrantW = f.grants[i]
	}
	return f.grants
}

// During warm-up (fewer than WarmEpochs of history) the predictive
// arbiter must behave exactly like the slack reclaimer at the same
// parameters — a short history window can never whipsaw the fleet.
func TestPredictiveWarmupMatchesSlack(t *testing.T) {
	pred := cluster.NewPredictiveArbiter()
	pred.Headroom = 1.25 // align the cushion with SlackReclaim's
	slack := cluster.NewSlackReclaim()

	// WarmEpochs = 3: the first two rounds leave every member below the
	// gate (the third observe reaches it), so exactly two rounds must be
	// bit-equal to the reactive rule.
	fp := newPredFixture(2, 100)
	fs := newPredFixture(2, 100)
	draws := [][]float64{{60, 20}, {62, 18}}
	for round, d := range draws {
		gp := append([]float64(nil), fp.round(t, pred, 100, d...)...)
		gs := fs.round(t, slack, 100, d...)
		for i := range gp {
			if gp[i] != gs[i] {
				t.Fatalf("warm-up round %d grant[%d]: predictive %g, slack %g", round, i, gp[i], gs[i])
			}
		}
	}
}

// The headline behavior: after a phase change the forecast-driven
// demand releases a donor's slack faster than the reactive
// gain-stepped decay, so the freed watts reach the throttled member in
// fewer epochs.
func TestPredictiveReclaimsFasterThanSlack(t *testing.T) {
	const budget = 120.0
	run := func(arb cluster.Arbiter) []float64 {
		f := newPredFixture(2, budget)
		// Phase 1: member 0 draws hot, member 1 idles — long enough for
		// the forecaster to pass WarmEpochs.
		var donorGrants []float64
		for i := 0; i < 5; i++ {
			f.round(t, arb, budget, 80, 30)
		}
		// Phase change: member 0 collapses to 15 W, member 1 surges and
		// is throttled at whatever it holds.
		for i := 0; i < 6; i++ {
			g := f.round(t, arb, budget, 15, f.obs[1].GrantW)
			donorGrants = append(donorGrants, g[0])
		}
		return donorGrants
	}

	pred := run(cluster.NewPredictiveArbiter())
	slack := run(cluster.NewSlackReclaim())
	// Two epochs after the flip the forecast has collapsed toward the
	// 15 W draw while the reactive decay is still halving its way down.
	if pred[1] >= slack[1] {
		t.Errorf("2 epochs after phase flip: predictive donor holds %.2f W, slack %.2f W — forecast did not release faster", pred[1], slack[1])
	}
	for i, g := range pred {
		if g < 10-1e-9 || g > 100+1e-9 {
			t.Errorf("epoch %d: predictive donor grant %.2f W outside [floor, peak]", i, g)
		}
	}
}

// Adversarial phase flip: a model warmed on a steep upward ramp is
// maximally wrong when the draw collapses. Containment means every
// grant stays inside [floor, peak], the budget is always fully placed,
// and the model re-converges within a few epochs instead of riding its
// stale trend.
func TestPredictiveMispredictContainment(t *testing.T) {
	arb := cluster.NewPredictiveArbiter()
	const budget = 150.0
	f := newPredFixture(2, budget)
	// Steep ramp: the trend term goes strongly positive.
	for _, d := range []float64{20, 40, 60, 80, 95} {
		f.round(t, arb, budget, d, 30)
	}
	// Flip: the ramping member collapses to 5 W. Containment: every
	// grant stays in [floor, peak] and the budget is fully placed (the
	// surplus the misprediction frees is water-filled, never stranded).
	var firstErr, lastErr float64
	for i := 0; i < 6; i++ {
		g := f.round(t, arb, budget, 5, 30)
		if i == 0 {
			firstErr = f.stats.PredictionErrW
		}
		lastErr = f.stats.PredictionErrW
		sum := 0.0
		for j, gw := range g {
			sum += gw
			if gw < f.obs[j].FloorW-1e-9 || gw > f.obs[j].PeakW+1e-9 {
				t.Fatalf("post-flip epoch %d: grant[%d] = %.3f W outside [%.0f, %.0f]",
					i, j, gw, f.obs[j].FloorW, f.obs[j].PeakW)
			}
		}
		if math.Abs(sum-budget) > 1e-6 {
			t.Fatalf("post-flip epoch %d: placed %.3f W of a %.0f W budget", i, sum, budget)
		}
	}
	// The flip really was adversarial (the stale ramp extrapolation
	// misses by tens of watts), and the model re-converges instead of
	// riding the dead trend.
	if firstErr < 20 {
		t.Errorf("flip epoch prediction error %.2f W — the scenario is not adversarial", firstErr)
	}
	if lastErr > 5 {
		t.Errorf("6 epochs after the flip prediction error is still %.2f W, want < 5 W", lastErr)
	}
}

// A Warm == false member (fresh attach, readmission) resets its model
// and forces the same proportional reseed every other arbiter performs.
func TestPredictiveColdMemberReseedsProportionally(t *testing.T) {
	arb := cluster.NewPredictiveArbiter()
	f := newPredFixture(2, 100)
	for i := 0; i < 4; i++ {
		f.round(t, arb, 100, 70, 20)
	}
	f.obs[1].Warm = false // member 1 readmitted cold
	g := f.round(t, arb, 100, 70, 0)
	if g[0] != 50 || g[1] != 50 {
		t.Errorf("cold member round grants %v, want proportional [50 50]", g)
	}
}

// Forget drops a member's history: the next warm round has no standing
// forecast to score, so the reported prediction error restarts at 0.
func TestPredictiveForgetResetsModel(t *testing.T) {
	arb := cluster.NewPredictiveArbiter()
	f := newPredFixture(1, 100)
	for _, d := range []float64{40, 60, 40, 60} {
		f.round(t, arb, 100, d)
	}
	if !f.stats.Forecast {
		t.Fatal("the predictive arbiter's rounds do not report a forecast")
	}
	if err := f.stats.PredictionErrW; err == 0 {
		t.Fatal("oscillating draw produced zero prediction error — the model is not being scored")
	}
	arb.Forget("m0")
	f.round(t, arb, 100, 60)
	if err := f.stats.PredictionErrW; err != 0 {
		t.Errorf("first post-Forget round reports %.3f W error, want 0 (no standing forecast)", err)
	}
}

// The full arbitration path — validation, id-keyed model update,
// forecast demands, water-fill — allocates nothing in the steady state.
func TestPredictiveArbitrationZeroAlloc(t *testing.T) {
	arb := cluster.NewPredictiveArbiter()
	n := 64
	obs := make([]cluster.Observation, n)
	ids := make([]string, n)
	for i := range obs {
		obs[i] = cluster.Observation{
			PeakW: 120, FloorW: 12, Weight: 1 + float64(i%3),
			GrantW: 60 + float64(i%17), PowerW: 50 + float64(i%23),
			ThrottleFrac: float64(i%2) * 0.5, Warm: true,
		}
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	grants := make([]float64, n)
	for i := 0; i < arb.WarmEpochs+1; i++ { // warm scratch and model
		if err := cluster.ComputeGrants(arb, 80*float64(n), ids, obs, grants); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		_ = cluster.ComputeGrants(arb, 80*float64(n), ids, obs, grants)
	}); avg != 0 {
		t.Errorf("steady-state predictive ComputeGrants allocates %.1f per epoch, want 0", avg)
	}
}

// End-to-end determinism under churn: a predictive cluster with an
// attach and a detach mid-run streams byte-identical records between
// worker pools of 1 and 8 (run under -race -shuffle=on in CI).
func TestPredictiveDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []byte {
		members := []cluster.Member{
			{ID: "hot", Session: sessionSpec{mix: "ILP1", cores: 8, epochs: 8, pol: fastcap}.build(t)},
			{ID: "mem", Session: sessionSpec{mix: "MEM4", cores: 8, epochs: 8, pol: fastcap}.build(t)},
			{ID: "be", Session: sessionSpec{mix: "MIX3", cores: 4, epochs: 6, pol: fastcap}.build(t)},
		}
		c, err := cluster.New(cluster.Config{BudgetW: 60, Arbiter: cluster.NewPredictiveArbiter(), Workers: workers}, members)
		if err != nil {
			t.Fatal(err)
		}
		var recs []cluster.EpochRecord
		for epoch := 0; ; epoch++ {
			if epoch == 2 {
				if err := c.Attach(cluster.Member{ID: "late",
					Session: sessionSpec{mix: "MID1", cores: 4, epochs: 4, pol: fastcap}.build(t)}); err != nil {
					t.Fatalf("Attach: %v", err)
				}
			}
			if epoch == 4 {
				if _, err := c.Detach("be"); err != nil {
					t.Fatalf("Detach: %v", err)
				}
			}
			rec, err := c.Step(context.Background())
			if errors.Is(err, cluster.ErrDone) {
				break
			}
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			recs = append(recs, rec)
		}
		return mustJSON(t, recs)
	}
	b1 := run(1)
	b8 := run(8)
	if !bytes.Equal(b1, b8) {
		t.Fatal("predictive cluster streams differ between Workers=1 and Workers=8")
	}
}
