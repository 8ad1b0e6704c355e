package dist_test

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/metrics"
)

// seriesValue reads one unlabeled series out of a registry's text
// exposition.
func seriesValue(t *testing.T, reg *metrics.Registry, series string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not exported:\n%s", series, buf.String())
	return 0
}

// Metric parity between the coordinators is a consequence of the shared
// epoch core, pinned here: the same fault-free 3-member fleet — one
// member under a throughput contract it cannot meet, arbitrated by the
// forecasting arbiter so every family has something to say — run in
// process and over the wire must count the same epochs, water-fill
// passes and SLO violations, and observe the same number of arbitration
// rounds and prediction errors.
func TestMetricParityBetweenCoordinators(t *testing.T) {
	fixture := []fixtureMember{
		{"ilp", "a1", testSpec{Mix: "ILP1", Cores: 8, Epochs: 8, Policy: "fastcap"}},
		{"mid", "a2", testSpec{Mix: "MID1", Cores: 4, Epochs: 5, Policy: "eqlpwr"}},
		{"bl1", "a2", testSpec{Mix: "MIX1", Cores: 4, Epochs: 8, Mach: "biglittle", Policy: "fastcap"}},
	}
	targets := map[string]float64{"mid": 1e6} // out of any machine's reach
	families := []string{
		"epochs_total", "waterfill_passes_total", "slo_violations_total",
		"arbitration_seconds_count", "prediction_abs_error_w_count",
	}

	// In process, with the core's handles on families named like dist's.
	local := metrics.NewRegistry()
	members := make([]cluster.Member, len(fixture))
	for i, fm := range fixture {
		ses, err := buildSession(specJSON(t, fm.spec))
		if err != nil {
			t.Fatal(err)
		}
		members[i] = cluster.Member{ID: fm.id, TargetBIPS: targets[fm.id], Session: ses}
	}
	c, err := cluster.New(cluster.Config{BudgetW: 0.7 * sumPeaks(t, fixture), Arbiter: cluster.NewPredictiveArbiter(), Workers: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(cluster.Metrics{
		Epochs:             local.Counter("local_epochs_total", "test"),
		FillPasses:         local.Counter("local_waterfill_passes_total", "test"),
		SLOViolations:      local.Counter("local_slo_violations_total", "test"),
		ArbitrationSeconds: local.Histogram("local_arbitration_seconds", "test", cluster.ArbitrationBuckets),
		PredictionAbsErrW:  local.Histogram("local_prediction_abs_error_w", "test", cluster.PredictionErrorBuckets),
	})
	var want []cluster.EpochRecord
	for {
		rec, err := c.Step(context.Background())
		if errors.Is(err, cluster.ErrDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}

	// Over the wire, with the daemon's own registration.
	wire := metrics.NewRegistry()
	coord, err := runDist(t, distRun{
		fixture: fixture, seed: 3, targets: targets,
		arbiter: func() cluster.Arbiter { return cluster.NewPredictiveArbiter() },
		cfg:     dist.Config{Metrics: dist.NewMetrics(wire)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, coord.Records()), mustJSON(t, want); !bytes.Equal(got, want) {
		t.Fatalf("the two coordinators' records diverged\n got: %.400s\nwant: %.400s", got, want)
	}

	for _, f := range families {
		l, w := seriesValue(t, local, "local_"+f), seriesValue(t, wire, "fastcap_dist_"+f)
		if l != w {
			t.Errorf("%s: %v in process, %v over the wire", f, l, w)
		}
		if l == 0 {
			t.Errorf("%s counted nothing: the fixture does not exercise it", f)
		}
	}
}
