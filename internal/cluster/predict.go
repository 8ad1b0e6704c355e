package cluster

import "math"

// predState is one member's online forecaster: a Holt-style double
// exponential smoother over the member's measured draw. level tracks
// the EWMA of PowerW, trend the AR(1)-smoothed per-epoch delta of the
// level, and forecast their one-epoch-ahead extrapolation. n counts the
// epochs folded in since the last cold start — the warm-up gate.
type predState struct {
	n        int
	level    float64
	trend    float64
	forecast float64
}

// observe folds one epoch's measured draw into the model and refreshes
// the one-epoch-ahead forecast. The first sample initializes the level
// directly (no trend), so the model never extrapolates off nothing.
func (st *predState) observe(alpha, beta, powerW float64) {
	if st.n == 0 {
		st.level, st.trend = powerW, 0
	} else {
		prev := st.level
		st.level += alpha * (powerW - st.level)
		st.trend = beta*(st.level-prev) + (1-beta)*st.trend
	}
	st.n++
	st.forecast = math.Max(0, st.level+st.trend)
}

// PredictiveArbiter pre-allocates budget to *predicted* demand instead
// of reacting to last epoch's throttle signal. Per member it fits a
// deterministic, allocation-free online forecaster — an EWMA level plus
// an AR(1)-style trend term over the member's draw history, no external
// deps — and grants next epoch's forecast (with headroom), clamped into
// [floor, peak], water-filling any surplus by weight × peak.
//
// The reactive slack arbiter moves a donor's grant toward its draw one
// Gain-step per epoch; the predictive arbiter's demand *is* the
// forecast, so a phase change propagates into the grants as fast as the
// smoother tracks it — freed watts reach the bound member epochs
// sooner. A throttled member's draw is cap-limited (the forecast learns
// the ceiling, not the appetite), so while ThrottleFrac sits above
// ThrottleBand the demand is floored at GrantW × Headroom, which
// compounds like the slack arbiter's growth path.
//
// Until a member has WarmEpochs of history — and whenever any member is
// cold (epoch 0, fresh attach, readmission after eviction) — the
// arbiter falls back to slack-reclaiming behavior, so a short history
// window can never whipsaw the fleet. A mispredicting model is further
// contained by the [floor, peak] clamp net every demand passes through.
//
// Per-member history is keyed by member id and dropped through Forget
// when a member detaches, is evicted, or is abandoned — a readmitted
// member provably restarts cold. Each round reports its trailing
// absolute prediction error (|forecast − draw| averaged over the
// round's warm members) in RoundStats, which the serving layer exports
// as fastcap_cluster_prediction_error_w.
type PredictiveArbiter struct {
	// Alpha is the EWMA gain on the level term, in (0, 1]. Default 0.5.
	Alpha float64
	// Beta is the AR(1) smoothing gain on the trend term, in [0, 1].
	// Default 0.4.
	Beta float64
	// Headroom is the demand cushion multiplied onto the forecast (and
	// onto GrantW for throttled members). Default 1.15 — tighter than
	// the slack arbiter's 1.25, because the forecast already anticipates
	// growth the reactive cushion has to buy blind.
	Headroom float64
	// ThrottleBand is the ThrottleFrac above which a member counts as
	// power-bound (its draw is cap-limited, so the forecast is a lower
	// bound on appetite). Default 0.10.
	ThrottleBand float64
	// Gain is the warm-up fallback's reactive gain, matching
	// SlackReclaim. Default 0.5.
	Gain float64
	// WarmEpochs is how many epochs of history a member needs before
	// its forecast drives its demand; below it the member is funded by
	// the reactive fallback rule. Default 3.
	WarmEpochs int

	f    fillScratch
	hist map[string]*predState // per-member forecasters, keyed by id
}

// NewPredictiveArbiter returns the forecast-driven arbiter with its
// default model parameters.
func NewPredictiveArbiter() *PredictiveArbiter {
	return &PredictiveArbiter{
		Alpha: 0.5, Beta: 0.4, Headroom: 1.15,
		ThrottleBand: 0.10, Gain: 0.5, WarmEpochs: 3,
		hist: make(map[string]*predState),
	}
}

// Name implements Arbiter.
func (*PredictiveArbiter) Name() string { return "predictive" }

// Forget implements Arbiter: drop the member's history so a
// readmission restarts its model cold. Unknown ids are a no-op.
func (a *PredictiveArbiter) Forget(id string) { delete(a.hist, id) }

// state returns the member's forecaster. The map insert only happens
// the first time a member id is seen, so the steady state stays
// allocation-free.
func (a *PredictiveArbiter) state(id string) *predState {
	st := a.hist[id]
	if st == nil {
		st = &predState{}
		if a.hist == nil {
			a.hist = make(map[string]*predState)
		}
		a.hist[id] = st
	}
	return st
}

// Rebalance implements Arbiter.
func (a *PredictiveArbiter) Rebalance(budgetW float64, ids []string, obs []Observation, grants []float64) RoundStats {
	// Model pass: score the standing forecast against the measured
	// draw, then fold the epoch in. Cold members reset explicitly —
	// belt and braces under the coordinators' Forget calls.
	errSum, errN := 0.0, 0
	cold := false
	for i := range obs {
		st := a.state(ids[i])
		if !obs[i].Warm {
			*st = predState{}
			cold = true
			continue
		}
		if st.n > 0 {
			errSum += math.Abs(st.forecast - obs[i].PowerW)
			errN++
		}
		st.observe(a.Alpha, a.Beta, obs[i].PowerW)
	}
	var stats RoundStats
	if cold {
		// Same cold-start seed as every other arbiter: plain
		// proportional-to-peak until the whole fleet has telemetry.
		stats = a.f.proportional(budgetW, obs, grants, false)
	} else {
		a.f.grow(len(obs))
		for i := range obs {
			o := &obs[i]
			st := a.state(ids[i])
			if st.n < a.WarmEpochs {
				// Warm-up fallback: the slack arbiter's reactive rule.
				a.f.demand[i] = reactiveDemand(o, a.ThrottleBand, a.Headroom, a.Gain)
				continue
			}
			d := st.forecast * a.Headroom
			if o.ThrottleFrac > a.ThrottleBand {
				// Cap-limited draw: the forecast learned the ceiling,
				// not the appetite. Keep growing off the grant.
				d = math.Max(d, o.GrantW*a.Headroom)
			}
			a.f.demand[i] = d
		}
		// Identical degradation to SlackReclaim: one funder.
		stats = a.f.fund(budgetW, obs, grants)
	}
	stats.Forecast = true
	if errN > 0 {
		stats.PredictionErrW = errSum / float64(errN)
	}
	return stats
}
