package cluster

import (
	"repro/internal/metrics"
	"repro/internal/stats"
)

// ArbitrationBuckets are the bounds of every arbitration-latency
// histogram fed through Metrics.ArbitrationSeconds. They span 100ns to
// ~0.4s: the water-fill runs in microseconds for realistic member
// counts, and the histogram should resolve that, not lump it under the
// first latency bucket.
var ArbitrationBuckets = stats.ExpBuckets(1e-7, 4, 11)

// PredictionErrorBuckets are the bounds of every histogram fed through
// Metrics.PredictionAbsErrW. They span 0.01 W to ~2.6 kW of mean
// absolute prediction error — sub-watt buckets resolve a well-fitted
// forecast, the top buckets catch a model tracking a phase change.
var PredictionErrorBuckets = stats.ExpBuckets(0.01, 4, 10)

// Metrics is the epoch core's instrumentation surface: a value struct
// of pre-resolved, nil-safe handles, fed identically whichever
// coordinator drives the core. The zero value disables everything at
// zero cost — each update is an atomic store against a nil receiver
// no-op — so library users and tests pay nothing. The serving layer
// fills every handle with series labeled by cluster id; the distributed
// layer fills only the aggregatable families (counters and histograms)
// and leaves the per-cluster gauges nil, because its families are
// daemon-global by design. Updates happen on the arbitration path,
// which is allocation-free, so enabling metrics does not perturb the
// zero-alloc steady state (benchmark-guarded in bench_test.go).
type Metrics struct {
	// BudgetW / GrantW / DrawW / SlackW mirror the last epoch record:
	// the global budget in force, the sum granted, the sum actually
	// drawn, and their difference.
	BudgetW *metrics.Gauge
	GrantW  *metrics.Gauge
	DrawW   *metrics.Gauge
	SlackW  *metrics.Gauge
	// Members is the live member count at the last epoch.
	Members *metrics.Gauge
	// Epochs counts completed cluster epochs.
	Epochs *metrics.Counter
	// ArbitrationSeconds observes the latency of each ComputeGrants
	// round (the arbiter proper, not member stepping).
	ArbitrationSeconds *metrics.Histogram
	// FillPasses accumulates the water-fill redistribution passes the
	// arbiter reports (RoundStats.FillPasses).
	FillPasses *metrics.Counter
	// SLOViolations counts per-member transitions into SLO violation
	// (the slo_violated events); SLOSatisfied is the number of
	// contracted members currently meeting their target.
	SLOViolations *metrics.Counter
	SLOSatisfied  *metrics.Gauge
	// PredictionErrW is the forecasting arbiter's mean absolute
	// one-epoch-ahead prediction error over the last round, in watts;
	// PredictionAbsErrW accumulates the same values as a distribution.
	// Only updated when the arbiter forecasts (RoundStats.Forecast).
	PredictionErrW    *metrics.Gauge
	PredictionAbsErrW *metrics.Histogram
}

// SetMetrics installs the instrumentation handles. It must be called
// before the first Step — the serving layer only learns the cluster's
// id (the metric label) after the Coordinator is built, hence a setter
// rather than a Config field. Publication happens-before the first
// Step via the caller's own synchronization (the group is not runnable
// until after SetMetrics returns).
func (c *Coordinator) SetMetrics(m Metrics) { c.core.SetMetrics(m) }
