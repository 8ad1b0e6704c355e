package serve

import (
	"repro/internal/cluster"
	"repro/internal/httpjson"
	"repro/internal/metrics"
)

// Metrics is the serving layer's instrumentation: every handle is
// resolved once at construction, so steady-state updates are single
// atomic ops and the zero value (no registry) disables everything —
// nil handles no-op, and instrumented code never branches on "metrics
// enabled". Build one with NewMetrics, pass it via Options.Metrics; the
// Manager registers its scrape-time gauges (sessions by state, queue
// depth) against the same registry when it starts.
//
// One Metrics serves one Manager: binding a second Manager to the same
// registry would re-register the gauge families and panic, by design —
// two managers silently summing into one family would be worse.
type Metrics struct {
	reg *metrics.Registry

	sessionsCreated *metrics.Counter
	clustersCreated *metrics.Counter
	sessionEpochs   *metrics.Counter
	clusterEpochs   *metrics.Counter
	stepSeconds     *metrics.Histogram

	rejectInvalid  *metrics.Counter
	rejectLimit    *metrics.Counter
	rejectDraining *metrics.Counter

	retargetSession *metrics.Counter
	retargetCluster *metrics.Counter

	memberAttach *metrics.Counter
	memberDetach *metrics.Counter

	drainClean *metrics.Counter
	drainCut   *metrics.Counter

	streams httpjson.StreamCounters

	// Per-cluster families, labeled by group id; series are dropped when
	// the group is deleted so a long-lived daemon's scrape stays bounded
	// by resident groups, not by every group that ever existed.
	clBudget   *metrics.GaugeVec
	clGrant    *metrics.GaugeVec
	clDraw     *metrics.GaugeVec
	clSlack    *metrics.GaugeVec
	clMembers  *metrics.GaugeVec
	clArb      *metrics.HistogramVec
	clFill     *metrics.CounterVec
	clSLOViol  *metrics.CounterVec
	clSLOSat   *metrics.GaugeVec
	clPredErr  *metrics.GaugeVec
	clPredErrH *metrics.HistogramVec
}

// NewMetrics registers the serving-layer families on reg and returns
// the resolved handles. A nil registry returns nil — instrumentation
// fully disabled.
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	rej := reg.CounterVec("fastcap_serve_admission_rejections_total",
		"Session/cluster creates refused, by reason.", "reason")
	ret := reg.CounterVec("fastcap_serve_retargets_total",
		"Accepted live budget retargets, by target kind.", "target")
	mem := reg.CounterVec("fastcap_serve_member_ops_total",
		"Cluster membership changes accepted by the serving layer.", "op")
	drains := reg.CounterVec("fastcap_serve_drains_total",
		"Manager drains, by outcome: clean (every session finished) or cut (the deadline canceled one).", "outcome")
	ends := reg.CounterVec("fastcap_serve_stream_terminations_total",
		"NDJSON stream endings, by cause: completed (stream reached its end) or client_gone (consumer hung up first).", "cause")
	return &Metrics{
		reg: reg,
		sessionsCreated: reg.Counter("fastcap_serve_sessions_created_total",
			"Solo sessions admitted."),
		clustersCreated: reg.Counter("fastcap_serve_cluster_groups_created_total",
			"Cluster groups admitted."),
		sessionEpochs: reg.Counter("fastcap_serve_session_epochs_total",
			"Solo-session control epochs completed."),
		clusterEpochs: reg.Counter("fastcap_serve_cluster_epochs_total",
			"Cluster epochs completed (each steps every live member once)."),
		stepSeconds: reg.Histogram("fastcap_serve_epoch_step_seconds",
			"Latency of one solo-session epoch step.", nil),
		rejectInvalid:   rej.With("invalid"),
		rejectLimit:     rej.With("limit"),
		rejectDraining:  rej.With("draining"),
		retargetSession: ret.With("session"),
		retargetCluster: ret.With("cluster"),
		memberAttach:    mem.With("attach"),
		memberDetach:    mem.With("detach"),
		drainClean:      drains.With("clean"),
		drainCut:        drains.With("cut"),
		streams: httpjson.StreamCounters{
			Heartbeats: reg.Counter("fastcap_serve_stream_heartbeats_total",
				"Keepalive heartbeat lines emitted on idle NDJSON streams."),
			Completed:  ends.With("completed"),
			ClientGone: ends.With("client_gone"),
		},
		clBudget: reg.GaugeVec("fastcap_cluster_budget_w",
			"Global watt budget in force at the cluster's last epoch.", "cluster"),
		clGrant: reg.GaugeVec("fastcap_cluster_grant_w",
			"Sum of member grants at the cluster's last epoch.", "cluster"),
		clDraw: reg.GaugeVec("fastcap_cluster_draw_w",
			"Sum of member measured power at the cluster's last epoch.", "cluster"),
		clSlack: reg.GaugeVec("fastcap_cluster_slack_w",
			"Granted minus drawn watts at the cluster's last epoch.", "cluster"),
		clMembers: reg.GaugeVec("fastcap_cluster_members",
			"Live members stepped in the cluster's last epoch.", "cluster"),
		clArb: reg.HistogramVec("fastcap_cluster_arbitration_seconds",
			"Latency of one arbitration round (ComputeGrants).", cluster.ArbitrationBuckets, "cluster"),
		clFill: reg.CounterVec("fastcap_cluster_waterfill_passes_total",
			"Water-fill redistribution passes accumulated across epochs.", "cluster"),
		clSLOViol: reg.CounterVec("fastcap_cluster_slo_violations_total",
			"Member transitions into SLO violation (throughput fell below the contracted band).", "cluster"),
		clSLOSat: reg.GaugeVec("fastcap_cluster_slo_satisfied_members",
			"Contracted members meeting their BIPS target at the cluster's last epoch.", "cluster"),
		clPredErr: reg.GaugeVec("fastcap_cluster_prediction_error_w",
			"Forecasting arbiter's mean absolute one-epoch-ahead prediction error at the cluster's last epoch, in watts.", "cluster"),
		clPredErrH: reg.HistogramVec("fastcap_cluster_prediction_abs_error_w",
			"Distribution of per-epoch mean absolute prediction error, in watts.", cluster.PredictionErrorBuckets, "cluster"),
	}
}

// bind registers the Manager-backed scrape-time gauges. Called once
// from NewManager.
func (mt *Metrics) bind(m *Manager) {
	if mt == nil || mt.reg == nil {
		return
	}
	states := []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
	sv := mt.reg.GaugeVec("fastcap_serve_sessions",
		"Resident solo sessions by lifecycle state.", "state")
	gv := mt.reg.GaugeVec("fastcap_serve_cluster_groups",
		"Resident cluster groups by lifecycle state.", "state")
	for _, st := range states {
		st := st
		sv.WithFunc(func() float64 { return float64(m.countSessions(st)) }, string(st))
		gv.WithFunc(func() float64 { return float64(m.countGroups(st)) }, string(st))
	}
	mt.reg.GaugeFunc("fastcap_serve_queue_depth",
		"Runnable tenants waiting for a scheduler worker.",
		func() float64 { return float64(m.queueDepth()) })
	mt.reg.GaugeFunc("fastcap_serve_resident_sessions",
		"Resident sessions, cluster members included (the admission load).",
		func() float64 { return float64(m.Count()) })
}

// clusterMetrics resolves the per-cluster handle set for one group id.
func (mt *Metrics) clusterMetrics(id string) cluster.Metrics {
	if mt == nil || mt.reg == nil {
		return cluster.Metrics{}
	}
	return cluster.Metrics{
		BudgetW:            mt.clBudget.With(id),
		GrantW:             mt.clGrant.With(id),
		DrawW:              mt.clDraw.With(id),
		SlackW:             mt.clSlack.With(id),
		Members:            mt.clMembers.With(id),
		ArbitrationSeconds: mt.clArb.With(id),
		FillPasses:         mt.clFill.With(id),
		SLOViolations:      mt.clSLOViol.With(id),
		SLOSatisfied:       mt.clSLOSat.With(id),
		PredictionErrW:     mt.clPredErr.With(id),
		PredictionAbsErrW:  mt.clPredErrH.With(id),
	}
}

// dropCluster removes a deleted group's labeled series.
func (mt *Metrics) dropCluster(id string) {
	if mt == nil || mt.reg == nil {
		return
	}
	mt.clBudget.Delete(id)
	mt.clGrant.Delete(id)
	mt.clDraw.Delete(id)
	mt.clSlack.Delete(id)
	mt.clMembers.Delete(id)
	mt.clArb.Delete(id)
	mt.clFill.Delete(id)
	mt.clSLOViol.Delete(id)
	mt.clSLOSat.Delete(id)
	mt.clPredErr.Delete(id)
	mt.clPredErrH.Delete(id)
}

// countSessions snapshots how many resident solo sessions sit in state
// st. Scrape-time only; takes m.mu then each s.mu, per the lock order.
func (m *Manager) countSessions(st State) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.sessions {
		s.mu.Lock()
		if s.state == st {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// countGroups is countSessions for cluster groups.
func (m *Manager) countGroups(st State) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, g := range m.clusters {
		g.mu.Lock()
		if g.state == st {
			n++
		}
		g.mu.Unlock()
	}
	return n
}

// queueDepth snapshots the runnable-queue length.
func (m *Manager) queueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.runq)
}
