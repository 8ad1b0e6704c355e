package dist

import (
	"repro/internal/cluster"
	"repro/internal/httpjson"
	"repro/internal/metrics"
)

// Metrics is the distributed layer's instrumentation: a value struct of
// pre-resolved, nil-safe handles shared by the coordinator service and
// the agent host (the zero value disables everything). Families are
// daemon-global rather than per-cluster: dist clusters are created by
// unauthenticated peers, and letting the network mint unbounded label
// sets would hand it the scrape's memory.
type Metrics struct {
	// events counts membership events by type. The keys are fixed at
	// registration: a type the wire invents finds no counter and is
	// dropped rather than minting a label.
	events map[string]*metrics.Counter

	// core feeds the epoch core of every hosted coordinator: the same
	// families the serving layer exports per in-process cluster, minus
	// the last-epoch gauges — summed over clusters a gauge means nothing,
	// so those handles stay nil (no-ops).
	core cluster.Metrics
	// streams accounts the NDJSON streams' keepalives and endings.
	streams httpjson.StreamCounters

	heartbeats     *metrics.Counter
	journalReplays *metrics.Counter
	recoveries     *metrics.Counter
	wireMsgs       *metrics.Counter
	wireFeed       *metrics.Counter
}

// NewMetrics registers the dist families on reg and returns the
// resolved handles. A nil registry disables instrumentation.
func NewMetrics(reg *metrics.Registry) Metrics {
	if reg == nil {
		return Metrics{}
	}
	ev := reg.CounterVec("fastcap_dist_events_total",
		"Coordinator membership events, by type (join, readmit, evict, detach, abandon).", "type")
	wire := reg.CounterVec("fastcap_dist_wire_errors_total",
		"Frames refused by the wire decoder, by surface: msgs (coordinator inbox) or feed (agent follower).", "surface")
	ends := reg.CounterVec("fastcap_dist_stream_terminations_total",
		"NDJSON stream endings, by cause: completed (stream reached its end) or client_gone (consumer hung up first).", "cause")
	return Metrics{
		events: map[string]*metrics.Counter{
			"join": ev.With("join"), "readmit": ev.With("readmit"), "evict": ev.With("evict"),
			"detach": ev.With("detach"), "abandon": ev.With("abandon"),
		},
		heartbeats: reg.Counter("fastcap_dist_heartbeats_total",
			"Agent liveness heartbeats received by hosted coordinators."),
		core: cluster.Metrics{
			Epochs: reg.Counter("fastcap_dist_epochs_total",
				"Distributed cluster epochs completed by hosted coordinators."),
			ArbitrationSeconds: reg.Histogram("fastcap_dist_arbitration_seconds",
				"Latency of one arbitration round (EpochCore.Arbitrate).", cluster.ArbitrationBuckets),
			FillPasses: reg.Counter("fastcap_dist_waterfill_passes_total",
				"Water-fill redistribution passes accumulated across epochs."),
			SLOViolations: reg.Counter("fastcap_dist_slo_violations_total",
				"Member transitions into SLO violation (throughput fell below the contracted band)."),
			PredictionAbsErrW: reg.Histogram("fastcap_dist_prediction_abs_error_w",
				"Distribution of per-epoch mean absolute prediction error, in watts.", cluster.PredictionErrorBuckets),
		},
		streams: httpjson.StreamCounters{
			Heartbeats: reg.Counter("fastcap_dist_stream_heartbeats_total",
				"Keepalive lines emitted on idle NDJSON streams."),
			Completed:  ends.With("completed"),
			ClientGone: ends.With("client_gone"),
		},
		journalReplays: reg.Counter("fastcap_dist_journal_replays_total",
			"Journaled grants replayed during agent restart recovery."),
		recoveries: reg.Counter("fastcap_dist_recoveries_total",
			"Agents rebuilt from a persisted journal at construction."),
		wireMsgs: wire.With("msgs"),
		wireFeed: wire.With("feed"),
	}
}
