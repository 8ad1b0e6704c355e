// Repository-level benchmarks for the tables and figures of the FastCap
// paper's evaluation (§IV) that ./benchmark does not time. The
// algorithm-overhead and arbitration costs are its policy.decide_us,
// workload.instantiate_us and cluster.rebalance_ns rows. Each figure
// bench runs its experiment end-to-end at reduced fidelity (fewer
// cores/epochs than cmd/fastcap-tables) so the whole suite completes in
// minutes; cmd/fastcap-tables regenerates the full-size outputs
// recorded in EXPERIMENTS.md.
package fastcap

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/workload"
)

// benchLab builds a small-fidelity Lab for figure benchmarks.
func benchLab() *experiments.Lab {
	return experiments.NewLab(experiments.Options{
		Cores: 4, Epochs: 4, EpochNs: 5e5, MixesPerClass: 1,
	})
}

// --- Table I: complexity comparison -----------------------------------

func BenchmarkTable1_Exhaustive2(b *testing.B) { benchPolicyDecision(b, 2, policy.NewMaxBIPS()) }
func BenchmarkTable1_Exhaustive4(b *testing.B) { benchPolicyDecision(b, 4, policy.NewMaxBIPS()) }

func benchPolicyDecision(b *testing.B, n int, pol policy.Policy) {
	s := experiments.SyntheticSnapshot(n, 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pol.Decide(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table III: workload construction ---------------------------------

func BenchmarkTable3_WorkloadInstantiation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, mix := range workload.TableIII {
			if _, err := workload.Instantiate(mix, 16); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figures: end-to-end experiment regeneration ----------------------

func BenchmarkFig3_AvgPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchLab().Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_PowerBreakdownSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchLab().Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_BudgetTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchLab().Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_ClassPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchLab().Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_CoreFrequencySeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchLab().Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_MemFrequencySeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchLab().Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_PolicyComparison(b *testing.B) {
	// Restrict to one mix per class to keep the bench minutes-scale.
	lab := benchLab()
	mixes := []workload.MixSpec{}
	for _, cl := range []workload.Class{workload.ClassILP, workload.ClassMID, workload.ClassMEM, workload.ClassMIX} {
		mixes = append(mixes, workload.MixesByClass(cl)[0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.ComparePolicies(mixes, 4, 0.60,
			[]string{"FastCap", "CPU-only", "Freq-Par", "Eql-Pwr"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_EqlFreq64Cores(b *testing.B) {
	lab := benchLab()
	mixes := workload.MixesByClass(workload.ClassMIX)[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.ComparePolicies(mixes, 64, 0.60,
			[]string{"FastCap", "Eql-Freq"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_MaxBIPS4Cores(b *testing.B) {
	lab := benchLab()
	mixes := workload.MixesByClass(workload.ClassMIX)[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.ComparePolicies(mixes, 4, 0.60,
			[]string{"FastCap", "MaxBIPS"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12And13_Configurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchLab().Fig12And13(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpochLengthStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(experiments.Options{
			Cores: 4, Epochs: 4, EpochNs: 1e6, MixesPerClass: 1,
		})
		if _, err := lab.EpochLengthStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: design choices called out in DESIGN.md ----------------

// Exhaustive scan over the M memory frequencies; the binary search it
// ablates is policy.decide_us.n64.
func BenchmarkAblation_ExhaustiveSb(b *testing.B) {
	benchPolicyDecision(b, 64, &policy.FastCap{Guard: true, Exhaustive: true})
}

// Quantization guard off; the guarded decision is policy.decide_us.n64.
func BenchmarkAblation_GuardOff(b *testing.B) {
	benchPolicyDecision(b, 64, &policy.FastCap{Guard: false})
}

// Table I "Numeric Opt" row: the interior-point reference solver.
func BenchmarkTable1_NumericOpt16(b *testing.B) {
	in := experiments.SyntheticSnapshotInputs(16, 0.6)
	opt := core.DefaultNumericOptions()
	for i := 0; i < b.N; i++ {
		if _, err := in.SolveNumeric(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Shared-L2 contention equilibrium (workload-calibration validation).
func BenchmarkCacheContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CacheContention(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end epoch cost: one full simulate-profile-decide-apply cycle.
func BenchmarkEndToEndEpoch(b *testing.B) {
	mix, err := workload.MixByName("MIX3")
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Options{Cores: 16, Epochs: 1, EpochNs: 1e6}.SimConfig(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := runner.Run(runner.Config{
			Sim: cfg, Mix: mix, BudgetFrac: 0.6, Epochs: 1, Policy: policy.NewFastCap(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The same cycle through the streaming session API (NewSession + Step +
// Result). Run alongside BenchmarkEndToEndEpoch: Run is now a thin loop
// over Session.Step, so the two must track each other — any gap is
// session-layer overhead.
func BenchmarkSessionEpoch(b *testing.B) {
	mix, err := workload.MixByName("MIX3")
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Options{Cores: 16, Epochs: 1, EpochNs: 1e6}.SimConfig(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := runner.NewSession(runner.Config{
			Sim: cfg, Mix: mix, BudgetFrac: 0.6, Epochs: 1, Policy: policy.NewFastCap(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Step(context.Background()); err != nil {
			b.Fatal(err)
		}
		if res := s.Result(); len(res.Epochs) != 1 {
			b.Fatal("short run")
		}
	}
}

// --- Instrumented arbitration: the observability tax ------------------

// benchMemberIDs names n members the way the arbitration benches key
// them.
func benchMemberIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	return ids
}

// sloObs builds a fleet with every fourth member holding a throughput
// contract — the demand-estimation path the SLO arbiter adds on top of
// the shared water-fill.
func sloObs(n int) []cluster.Observation {
	obs := make([]cluster.Observation, n)
	for i := range obs {
		obs[i] = cluster.Observation{
			PeakW:  120,
			FloorW: 12,
			Weight: 1 + float64(i%3),
			GrantW: 60 + float64(i%17),
			PowerW: 50 + float64(i%23),
			Instr:  1e6 + float64(i)*1e4,
			BIPS:   2 + float64(i%5)*0.25,
			Warm:   true,
			// A mixed fleet: every other member pressed against its cap.
			ThrottleFrac: float64(i%2) * 0.5,
		}
		if i%4 == 0 {
			obs[i].TargetBIPS = 2.5
		}
	}
	return obs
}

// benchClusterMetrics builds the full per-cluster handle set a serving
// coordinator records into, on a throwaway registry.
func benchClusterMetrics() cluster.Metrics {
	reg := metrics.NewRegistry()
	return cluster.Metrics{
		BudgetW:            reg.Gauge("bench_budget_w", "bench"),
		GrantW:             reg.Gauge("bench_grant_w", "bench"),
		DrawW:              reg.Gauge("bench_draw_w", "bench"),
		SlackW:             reg.Gauge("bench_slack_w", "bench"),
		Members:            reg.Gauge("bench_members", "bench"),
		Epochs:             reg.Counter("bench_epochs_total", "bench"),
		ArbitrationSeconds: reg.Histogram("bench_arbitration_seconds", "bench", metrics.DefLatencyBuckets),
		FillPasses:         reg.Counter("bench_fill_passes_total", "bench"),
		SLOViolations:      reg.Counter("bench_slo_violations_total", "bench"),
		SLOSatisfied:       reg.Gauge("bench_slo_satisfied", "bench"),
		PredictionErrW:     reg.Gauge("bench_prediction_error_w", "bench"),
		PredictionAbsErrW:  reg.Histogram("bench_prediction_abs_error_w", "bench", metrics.DefLatencyBuckets),
	}
}

// instrumentedRebalance is one epoch-boundary rebalance plus exactly
// the metric writes the epoch core (cluster.EpochCore) wraps around it:
// the latency histogram, the water-fill pass counter and prediction
// error from the round's stats, the epoch counter and the
// budget/grant/draw/slack/member gauges.
func instrumentedRebalance(arb cluster.Arbiter, met cluster.Metrics, budget float64, ids []string, obs []cluster.Observation, grants []float64) {
	start := time.Now()
	stats := arb.Rebalance(budget, ids, obs, grants)
	met.ArbitrationSeconds.Observe(time.Since(start).Seconds())
	met.FillPasses.Add(uint64(stats.FillPasses))
	if stats.Forecast {
		met.PredictionErrW.Set(stats.PredictionErrW)
		met.PredictionAbsErrW.Observe(stats.PredictionErrW)
	}
	met.Epochs.Inc()
	var draw, grant float64
	for i := range obs {
		draw += obs[i].PowerW
		grant += grants[i]
	}
	met.BudgetW.Set(budget)
	met.GrantW.Set(grant)
	met.DrawW.Set(draw)
	met.SlackW.Set(grant - draw)
	met.Members.Set(float64(len(obs)))
}

// BenchmarkClusterArbitrationInstrumented is one rebalance over 64
// members with the metrics recorded; its delta over the benchmark's
// cluster.rebalance_ns.<arbiter>.n64 rows is the whole observability
// tax on the arbitration hot path. The handles are
// pre-resolved atomics and the round's stats come back by value, so the
// contract is zero additional allocations — enforced by
// TestInstrumentedArbitrationZeroAlloc, not just eyeballed.
func BenchmarkClusterArbitrationInstrumented(b *testing.B) {
	for _, name := range []string{"static", "slack", "priority", "slo", "predictive"} {
		arb, _ := cluster.ArbiterByName(name)
		b.Run(name, func(b *testing.B) {
			const n = 64
			obs := sloObs(n)
			ids := benchMemberIDs(n)
			grants := make([]float64, n)
			budget := 80.0 * n
			met := benchClusterMetrics()
			instrumentedRebalance(arb, met, budget, ids, obs, grants) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				instrumentedRebalance(arb, met, budget, ids, obs, grants)
			}
		})
	}
}

// TestInstrumentedArbitrationZeroAlloc pins the acceptance bar: the
// steady-state arbitration epoch, metrics included, allocates nothing.
func TestInstrumentedArbitrationZeroAlloc(t *testing.T) {
	for _, name := range []string{"static", "slack", "priority", "slo", "predictive"} {
		arb, _ := cluster.ArbiterByName(name)
		const n = 64
		obs := sloObs(n)
		ids := benchMemberIDs(n)
		grants := make([]float64, n)
		met := benchClusterMetrics()
		instrumentedRebalance(arb, met, 80*n, ids, obs, grants) // warm the scratch
		if avg := testing.AllocsPerRun(200, func() {
			instrumentedRebalance(arb, met, 80*n, ids, obs, grants)
		}); avg != 0 {
			t.Errorf("%s: instrumented arbitration allocates %.1f per epoch, want 0", name, avg)
		}
	}
}

// --- Distributed coordination: remote epoch cost ----------------------

// BenchmarkRemoteEpoch runs an 8-member, 2-agent distributed cluster
// over the deterministic in-memory transport and reports ns/epoch for
// the full remote barrier: grant push, an encode/decode wire
// round-trip per frame, each member's simulated control epoch, and the
// report barrier. Compare against the benchmark's
// cluster.rebalance_ns.<arbiter>.n8 rows (the arbitration math alone)
// and BenchmarkSessionEpoch (one member's epoch) to see what the
// distribution layer itself costs.
func BenchmarkRemoteEpoch(b *testing.B) {
	const (
		members = 8
		agents  = 2
		epochs  = 8
	)
	spec := json.RawMessage(`{"mix":"MIX3","budget_frac":1,"cores":4,"epochs":8,"epoch_ms":0.5}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := dist.NewSimNet(dist.SimConfig{Seed: 1})
		coord, err := dist.NewCoordinator(dist.Config{
			BudgetW: 40, Expect: members, Arbiter: cluster.NewSlackReclaim(),
		})
		if err != nil {
			b.Fatal(err)
		}
		for a := 0; a < agents; a++ {
			name := fmt.Sprintf("agent%d", a)
			specs := make([]dist.MemberSpec, 0, members/agents)
			for m := 0; m < members/agents; m++ {
				specs = append(specs, dist.MemberSpec{ID: fmt.Sprintf("m%d.%d", a, m), Spec: spec})
			}
			ag, err := dist.NewAgent(dist.AgentConfig{
				Name: name, Members: specs, Build: serve.SessionFromSpec,
				Send: net.Sender(name), Clock: net.Clock(name),
			})
			if err != nil {
				b.Fatal(err)
			}
			net.Register(name, ag.Handle, nil)
			ag.Start()
		}
		if err := coord.Run(net); err != nil {
			b.Fatal(err)
		}
		if got := len(coord.Records()); got != epochs {
			b.Fatalf("%d cluster epochs, want %d", got, epochs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*epochs), "ns/epoch")
}

// TestWireCodecAllocs pins what the wire codec may allocate per frame:
// appending a grant or a report into a buffer with room allocates
// nothing, decoding one allocates its id strings and nothing else, and
// decoding a result allocates each slice once at its final size.
func TestWireCodecAllocs(t *testing.T) {
	const records, cores = 200, 4
	res := &runner.Result{
		Mix: "MIX3", PolicyName: "fastcap", Cores: cores, PeakW: 80, BudgetW: 52,
		Epochs:     make([]runner.EpochRecord, records),
		TotalInstr: make([]float64, cores), NsPerInstr: make([]float64, cores), TotalTimeNs: 1e8,
	}
	for i := range res.Epochs {
		res.Epochs[i] = runner.EpochRecord{
			Epoch: i, AvgPowerW: 51.25 + float64(i)/7, BudgetW: 52, PeakW: 80,
			CoreSteps: make([]int, cores), Instr: make([]float64, cores), CoreW: make([]float64, cores),
		}
	}
	frames := []struct {
		name      string
		msg       dist.Msg
		maxDecode float64
	}{
		{"grant", dist.Msg{Type: dist.TypeGrant, Member: "a0.m2", Epoch: 1234, GrantW: 23.456789012345}, 1},
		{"report", dist.Msg{Type: dist.TypeReport, Member: "a0.m2", Agent: "a0", Epoch: 1234, MemberEpoch: 1234,
			PowerW: 21.98765432101, ThrottleFrac: 0.75, Instr: 1.23456789e6}, 2},
		// Three slices a record, the record slice, the two aggregates,
		// the Result itself and four strings.
		{"result", dist.Msg{Type: dist.TypeResult, Member: "a0.m2", Agent: "a0", Result: res}, 3*records + 8},
	}
	for _, f := range frames {
		frame, err := dist.EncodeMsg(f.msg)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, len(frame))
		if avg := testing.AllocsPerRun(100, func() {
			if _, err := dist.AppendMsg(buf, f.msg); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: AppendMsg into a sized buffer allocates %.1f, want 0", f.name, avg)
		}
		var got dist.Msg
		if avg := testing.AllocsPerRun(100, func() {
			if got, err = dist.DecodeMsg(frame); err != nil {
				t.Fatal(err)
			}
		}); avg > f.maxDecode {
			t.Errorf("%s: DecodeMsg allocates %.1f, want at most %.0f", f.name, avg, f.maxDecode)
		}
		if r := got.Result; r != nil {
			if cap(r.Epochs) != records {
				t.Errorf("decoded %d records into capacity %d, want no spare", records, cap(r.Epochs))
			}
			if last := r.Epochs[records-1]; cap(last.CoreSteps) != cores || cap(last.Instr) != cores || cap(last.CoreW) != cores {
				t.Errorf("decoded per-record slices have capacity %d/%d/%d, want %d each",
					cap(last.CoreSteps), cap(last.Instr), cap(last.CoreW), cores)
			}
		}
	}
}
