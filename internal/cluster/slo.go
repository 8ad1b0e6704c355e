package cluster

import "math"

// SLO event types carried in an EpochRecord's Events stream. A member
// transitions to violated when its measured BIPS falls below
// target × (1 − band) and back to restored only once it reaches the
// full target again — the asymmetry is the hysteresis that keeps a
// marginal member from flapping between states every epoch.
const (
	// SLOViolated marks the epoch a member's throughput first dropped
	// below its declared target (beyond the hysteresis band).
	SLOViolated = "slo_violated"
	// SLORestored marks the epoch a previously-violated member climbed
	// back to (or above) its full target.
	SLORestored = "slo_restored"
)

// SLOEvent is a typed per-member pressure event in the grant stream:
// the boundary crossings of a member's throughput contract. Events
// appear only on transition epochs, so a healthy cluster streams none.
type SLOEvent struct {
	// Member is the member ID the event concerns.
	Member string `json:"member"`
	// Type is SLOViolated or SLORestored.
	Type string `json:"type"`
	// BIPS is the member's measured throughput over the epoch that
	// crossed the boundary.
	BIPS float64 `json:"bips"`
	// TargetBIPS is the member's declared target.
	TargetBIPS float64 `json:"target_bips"`
}

// SLOTracker derives SLO pressure events from finished epoch records.
// It is deliberately decoupled from the arbiter: the epoch core runs one
// tracker over every record it finishes, whichever coordinator drives
// it, so the event stream follows from the record alone — an
// arbiter-side implementation would instead depend on the observation
// plumbing.
//
// Not safe for concurrent use; each epoch core owns one.
type SLOTracker struct {
	// Band is the hysteresis dead zone: a member is violated only below
	// target × (1 − Band), restored only at the full target.
	Band float64

	violated map[string]bool
}

// NewSLOTracker returns a tracker with the default hysteresis band.
func NewSLOTracker() *SLOTracker {
	return &SLOTracker{Band: defaultSLOBand, violated: make(map[string]bool)}
}

// Apply inspects rec's member lines in order, updates each contracted
// member's violation state with hysteresis, marks currently-violated
// lines (SLOViolated) and appends transition events to rec.Events. It
// returns the number of violation transitions this epoch, the number of
// contracted members currently meeting their target, and the number of
// contracted members observed — the coordinator's metric feed.
//
// Members without a contract (TargetBIPS == 0) are untouched: their
// lines carry no SLO fields and they never produce events, which keeps
// contract-free clusters byte-identical to pre-SLO builds.
func (t *SLOTracker) Apply(rec *EpochRecord) (violations, satisfied, tracked int) {
	for i := range rec.Members {
		mg := &rec.Members[i]
		if mg.TargetBIPS <= 0 {
			continue
		}
		tracked++
		was := t.violated[mg.ID]
		now := was
		if !was && mg.BIPS < mg.TargetBIPS*(1-t.Band) {
			now = true
			violations++
			rec.Events = append(rec.Events, SLOEvent{
				Member: mg.ID, Type: SLOViolated,
				BIPS: mg.BIPS, TargetBIPS: mg.TargetBIPS,
			})
		} else if was && mg.BIPS >= mg.TargetBIPS {
			now = false
			rec.Events = append(rec.Events, SLOEvent{
				Member: mg.ID, Type: SLORestored,
				BIPS: mg.BIPS, TargetBIPS: mg.TargetBIPS,
			})
		}
		if now != was {
			t.violated[mg.ID] = now
		}
		mg.SLOViolated = now
		if !now {
			satisfied++
		}
	}
	return violations, satisfied, tracked
}

// Forget drops a detached member's violation state so a later member
// reusing the ID starts clean.
func (t *SLOTracker) Forget(id string) { delete(t.violated, id) }

// defaultSLOBand is the shared hysteresis band for the arbiter's
// feasible/degraded switch and the tracker's violated/restored switch.
const defaultSLOBand = 0.05

// SLOArbiter arbitrates on throughput contracts instead of raw slack:
// members declare a target rate (Observation.TargetBIPS) and the
// arbiter works out the watts each needs to hold it, satisfies those
// floors first, then water-fills the remainder via the shared clamp
// path. Per-member demand is estimated from measured efficiency —
// watts-per-BIPS over the completed epoch, scaled to the target plus a
// Headroom cushion — and moved toward with a Gain-limited step, the
// same rate limiting SlackReclaim uses.
//
// When Σ demands exceed the budget the cluster is infeasible and the
// arbiter degrades deterministically: grants become a pure function of
// the declared contracts — floors first, remainder proportional to
// TargetBIPS, clamped to peaks — with no measured quantity in the mix,
// so the infeasible regime is a fixed point, not an oscillation chasing
// noisy telemetry. Hysteresis (Band) keeps the arbiter in the degraded
// regime until demands drop clearly below budget, so a cluster on the
// boundary does not flap between regimes.
//
// Members without a contract (TargetBIPS == 0) are floor-first
// best-effort: they hold their FloorW and share in whatever remains
// after contracted members are funded.
type SLOArbiter struct {
	// Band is the hysteresis dead zone for leaving the degraded regime:
	// once infeasible, the arbiter returns to demand-driven grants only
	// when Σ demands ≤ budget × (1 − Band). Default 0.05.
	Band float64
	// Headroom is the cushion multiplier on the watts-for-target
	// estimate, keeping a member that just reached its target from
	// being squeezed back below it. Default 1.15.
	Headroom float64
	// Gain is the fraction of the demand delta applied per epoch, in
	// (0, 1]. Default 0.5.
	Gain float64

	noHistory
	f        fillScratch
	degraded bool
}

// NewSLOArbiter returns the SLO arbiter with its default hysteresis
// parameters.
func NewSLOArbiter() *SLOArbiter {
	return &SLOArbiter{Band: defaultSLOBand, Headroom: 1.15, Gain: 0.5}
}

// Name implements Arbiter.
func (*SLOArbiter) Name() string { return "slo" }

// Rebalance implements Arbiter.
func (a *SLOArbiter) Rebalance(budgetW float64, _ []string, obs []Observation, grants []float64) RoundStats {
	if coldStart(obs) {
		// No telemetry to estimate efficiency from yet: seed plain
		// proportional-to-peak, like every other arbiter (identical
		// seeds are what let a freshly-attached member join without
		// perturbing the stream).
		a.degraded = false
		return a.f.proportional(budgetW, obs, grants, false)
	}
	a.f.grow(len(obs))
	sumDemand := 0.0
	for i, o := range obs {
		d := o.FloorW // best-effort members: floor now, surplus later
		if o.TargetBIPS > 0 {
			// Watts the contract needs at the member's measured
			// efficiency; with no usable signal assume the worst case.
			est := o.PeakW
			if o.BIPS > 0 && o.PowerW > 0 {
				est = o.PowerW * (o.TargetBIPS / o.BIPS) * a.Headroom
			}
			d = o.GrantW + a.Gain*(est-o.GrantW)
			d = math.Min(math.Max(d, o.FloorW), o.PeakW)
		}
		a.f.demand[i] = d
		sumDemand += d
	}
	if !a.degraded && sumDemand > budgetW {
		a.degraded = true
	} else if a.degraded && sumDemand <= budgetW*(1-a.Band) {
		a.degraded = false
	}
	if !a.degraded {
		// Feasible: every demand becomes a funded floor (sumDemand ≤
		// budget, so the fill covers them all) and the surplus lands
		// weight-proportionally with whoever has peak left to use it.
		return a.f.fillAboveDemand(budgetW, obs, grants)
	}
	// Infeasible: grants depend only on the declared contracts —
	// floors first, remainder split proportional to TargetBIPS
	// (best-effort members propose 0 and clamp to their floors) —
	// so the degraded regime is an exact fixed point.
	for i, o := range obs {
		a.f.lo[i] = o.FloorW
		a.f.hi[i] = o.PeakW
		a.f.share[i] = o.TargetBIPS
	}
	a.f.fill(budgetW, grants)
	return RoundStats{FillPasses: a.f.passes}
}
