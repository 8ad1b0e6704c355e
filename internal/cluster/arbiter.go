package cluster

import (
	"fmt"
	"math"

	"repro/internal/runner"
)

// ComputeGrants runs one arbitration round: arb re-partitions budgetW
// across the members described by obs (ids names them, for arbiter
// history and error reporting), and every resulting grant is clamped
// symmetrically into [FloorW, PeakW] — the built-in arbiters already
// respect the bounds, but Arbiter is a public seam, and a custom
// implementation returning an out-of-range grant should lose precision,
// not poison the cluster. Only NaN — no sane clamp — is a fatal arbiter
// bug, reported as a runner.ErrInvalidConfig. grants[i] holds member
// i's next-epoch budget in watts on return.
//
// Observations are validated before the arbiter sees them: a non-finite
// or negative-count telemetry field (a zero-duration epoch dividing
// into a rate, a corrupted wire frame) is rejected typed at this seam,
// so Inf/NaN can never reach an arbiter's state, the SLO tracker, or
// the NDJSON stream.
//
// The epoch core (EpochCore.Arbitrate) is the one production caller —
// both coordinators reach the arbiter through it — and reads the
// round's stats; ComputeGrants is the same round for callers that only
// want the grants.
func ComputeGrants(arb Arbiter, budgetW float64, ids []string, obs []Observation, grants []float64) error {
	_, err := computeGrants(arb, budgetW, ids, obs, grants)
	return err
}

func computeGrants(arb Arbiter, budgetW float64, ids []string, obs []Observation, grants []float64) (RoundStats, error) {
	if err := ValidateObservations(ids, obs); err != nil {
		return RoundStats{}, err
	}
	st := arb.Rebalance(budgetW, ids, obs, grants)
	for i := range grants {
		g := grants[i]
		if math.IsNaN(g) {
			return st, fmt.Errorf("%w: arbiter %q granted NaN W to member %q", runner.ErrInvalidConfig, arb.Name(), ids[i])
		}
		if g < obs[i].FloorW {
			g = obs[i].FloorW
		}
		if g > obs[i].PeakW {
			g = obs[i].PeakW
		}
		grants[i] = g
	}
	return st, nil
}

// Observation is one live member's view at an epoch boundary — what the
// arbiter knows about the member when it re-partitions the global
// budget. GrantW and PowerW describe the epoch just completed; a member
// with no completed epoch yet (epoch 0, or freshly attached) reports
// Warm == false, which every arbiter treats as "seed me proportionally".
// Warm is an explicit flag, not a GrantW sentinel: a legitimately
// granted ~0 W member (floor 0, budget exhausted) must not silently
// re-trigger proportional reseeding.
type Observation struct {
	// PeakW is the member machine's nameplate peak — the most a grant
	// can ever be worth to it.
	PeakW float64
	// FloorW is the member's guaranteed minimum grant. Arbiters never
	// allocate below it, and when the global budget cannot cover the sum
	// of floors every member degrades to exactly its floor.
	FloorW float64
	// Weight is the member's priority weight (the priority-weighted
	// arbiter's share multiplier; 1 for equal treatment).
	Weight float64
	// GrantW is the budget the member held during the completed epoch
	// (0 when it has not run one yet).
	GrantW float64
	// PowerW is the average power the member actually drew over that
	// epoch. GrantW − PowerW is its slack.
	PowerW float64
	// ThrottleFrac is the fraction of the member's cores the capping
	// policy held below their top DVFS step during the epoch — the
	// signal that the member could convert more budget into
	// performance. 0 means every core ran at full frequency, so any
	// slack is genuine.
	ThrottleFrac float64

	// Instr is the total instructions the member retired over the
	// completed epoch (0 when it has not run one yet). Together with the
	// epoch length it is the member's progress telemetry — what turns
	// the arbiter from a watt balancer into a contract enforcer.
	Instr float64
	// BIPS is Instr expressed as a rate: giga-instructions per second
	// over the completed epoch (instr/epochNs, numerically identical).
	// Both coordinators compute it with the same division so the
	// distributed grant stream stays byte-identical to the local one.
	BIPS float64
	// TargetBIPS is the member's declared throughput SLO in BIPS; 0
	// means the member carries no contract and is arbitrated on watts
	// alone. Watt-only arbiters ignore it.
	TargetBIPS float64

	// Warm reports that GrantW/PowerW/ThrottleFrac describe a really
	// completed epoch. False for a member that has not run one yet
	// (epoch 0, freshly attached, or readmitted after an eviction) —
	// the arbiters reseed proportionally and history-keeping arbiters
	// restart the member's model cold.
	Warm bool
}

// DeriveBIPS converts an instruction count over an epoch into a BIPS
// rate (instructions per nanosecond ≡ giga-instructions per second),
// guarding the degenerate inputs that would otherwise mint Inf/NaN: a
// zero or negative epoch duration, a negative instruction count, or
// non-finite inputs all derive to 0 — "no measured progress" — instead
// of poisoning downstream consumers. Both coordinators derive member
// BIPS through this one division, which keeps the distributed grant
// stream byte-identical to the local one.
func DeriveBIPS(instr, epochNs float64) float64 {
	if !(epochNs > 0) || math.IsInf(epochNs, 0) {
		return 0
	}
	if !(instr > 0) || math.IsInf(instr, 0) {
		return 0
	}
	return instr / epochNs
}

// ValidateObservations rejects telemetry no arbiter should ever see:
// any non-finite float field, or a negative progress count. The error
// wraps runner.ErrInvalidConfig and names the offending member (ids is
// indexed alongside obs; it may be nil, degrading the name to the
// position). ComputeGrants calls it on every round, so the check sits
// once at the seam instead of inside every arbiter.
func ValidateObservations(ids []string, obs []Observation) error {
	name := func(i int) string {
		if i < len(ids) {
			return ids[i]
		}
		return fmt.Sprintf("#%d", i)
	}
	for i, o := range obs {
		for _, v := range [...]float64{o.PeakW, o.FloorW, o.Weight, o.GrantW, o.PowerW, o.ThrottleFrac, o.Instr, o.BIPS, o.TargetBIPS} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: member %q reported non-finite telemetry %+v", runner.ErrInvalidConfig, name(i), o)
			}
		}
		if o.Instr < 0 || o.BIPS < 0 {
			return fmt.Errorf("%w: member %q reported negative progress (instr %g, bips %g)", runner.ErrInvalidConfig, name(i), o.Instr, o.BIPS)
		}
	}
	return nil
}

// Arbiter re-partitions the global watt budget across cluster members
// at each epoch boundary. Implementations fill grants[i] (same order as
// obs) with member i's next-epoch budget in watts, keeping every grant
// inside [obs[i].FloorW, obs[i].PeakW] whenever budgetW covers the sum
// of floors, and degrading every member to exactly its floor when it
// does not. The epoch core clamps out-of-range grants into
// [floor, peak] defensively — a sloppy custom arbiter loses precision,
// not the cluster — but a NaN grant is a fatal arbiter bug.
//
// This is the whole arbiter contract: one id-keyed round plus the
// per-member lifecycle hook. The epoch core is its only production
// caller, so there are no optional side interfaces to discover — what
// a round has to say about itself it returns as RoundStats.
//
// Ownership follows the policy.Policy contract: an instance may keep
// scratch and per-member history between Rebalance calls, so use one
// instance per coordinator and never share instances across concurrent
// clusters. Rebalance must be deterministic in the sequence of
// (budgetW, ids, obs) it has seen — the cluster's bit-identical stream
// guarantee rests on it — and is expected to run in O(len(obs)) with no
// steady-state allocations.
type Arbiter interface {
	// Name labels the arbiter in records and tables.
	Name() string
	// Rebalance fills grants with next-epoch budgets for the members
	// described by obs and reports the round's stats. ids[i] names
	// obs[i]: history-keeping arbiters key per-member state on it, so
	// state survives the positional churn of attach/detach; stateless
	// arbiters ignore it. len(ids) == len(obs) == len(grants); all may
	// be empty.
	Rebalance(budgetW float64, ids []string, obs []Observation, grants []float64) RoundStats
	// Forget drops whatever per-member history the arbiter keeps for
	// id. Both coordinators call it (through EpochCore.Forget) when a
	// member leaves the pool for any reason — detach, eviction, or
	// abandonment — so a later readmission starts with a cold model
	// instead of stale history. Unknown ids, and arbiters without
	// history, make it a no-op.
	Forget(id string)
}

// RoundStats is what one Rebalance round reports about itself, returned
// by value so instrumenting a round costs no allocation and no type
// assertion.
type RoundStats struct {
	// FillPasses is how many water-fill redistribution passes the round
	// used (0 when it resolved on a trivial bound, without iterating).
	// Convergence cost is the water-fill's one interesting performance
	// dimension, and its 2n pass bound deserves a live counter.
	FillPasses int
	// Forecast reports that the arbiter scores a forecast each round;
	// PredictionErrW is then the round's mean absolute one-epoch-ahead
	// prediction error in watts over the members that had a standing
	// forecast (0 when none had).
	Forecast       bool
	PredictionErrW float64
}

// noHistory is embedded by the arbiters that keep no per-member state.
type noHistory struct{}

// Forget implements Arbiter: there is nothing to drop.
func (noHistory) Forget(string) {}

// fillScratch is the clamped proportional water-fill shared by every
// arbiter: distribute budgetW proportionally to share_i, clamped to
// [lo_i, hi_i], redistributing whatever clamping frees (or costs) among
// the still-unclamped members. It is exact — at most n passes, each
// O(n) — and allocation-free once the scratch has grown to the member
// count.
type fillScratch struct {
	clamped []bool
	lo      []float64
	hi      []float64
	share   []float64
	demand  []float64 // the demand arbiters' per-member estimates (see fund)
	passes  int       // redistribution passes used by the last fill
}

func (f *fillScratch) grow(n int) {
	if cap(f.clamped) < n {
		f.clamped = make([]bool, n)
		f.lo = make([]float64, n)
		f.hi = make([]float64, n)
		f.share = make([]float64, n)
		f.demand = make([]float64, n)
	}
	f.clamped = f.clamped[:n]
	f.lo = f.lo[:n]
	f.hi = f.hi[:n]
	f.share = f.share[:n]
	f.demand = f.demand[:n]
}

// fill distributes budgetW over the bounds currently loaded in f.lo /
// f.hi / f.share and writes the result to grants.
//
// Ceiling clamps are applied before floor clamps: a hi-clamp frees
// budget that raises everyone else's share, so clamping a member to its
// floor in the same pass — off the stale, pre-clamp remainder — would
// freeze it there and leave the freed watts permanently unallocated
// (e.g. weights 1000:1 on equal machines used to strand a third of the
// budget). Floor clamps only shrink the others' shares, which can never
// create a new ceiling violation, so once the floor phase starts the
// ceiling set is final. At most 2n passes, each O(n).
func (f *fillScratch) fill(budgetW float64, grants []float64) {
	n := len(grants)
	f.passes = 0
	sumLo, sumHi := 0.0, 0.0
	for i := 0; i < n; i++ {
		f.clamped[i] = false
		sumLo += f.lo[i]
		sumHi += f.hi[i]
	}
	// Infeasibly tight: every member degrades to its floor — a stable
	// fixed point, not an oscillation between competing claims.
	if budgetW <= sumLo {
		copy(grants, f.lo)
		return
	}
	// More budget than the members can use: everyone runs uncapped.
	if budgetW >= sumHi {
		copy(grants, f.hi)
		return
	}
	for pass := 0; pass < 2*n; pass++ {
		f.passes = pass + 1
		rem := budgetW
		sumShare := 0.0
		open := 0
		for i := 0; i < n; i++ {
			if f.clamped[i] {
				rem -= grants[i]
			} else {
				sumShare += f.share[i]
				open++
			}
		}
		if open == 0 {
			return
		}
		propose := func(i int) float64 {
			// Degenerate all-zero shares split the remainder evenly.
			if sumShare > 0 {
				return rem * f.share[i] / sumShare
			}
			return rem / float64(open)
		}
		hiClamped := false
		for i := 0; i < n; i++ {
			if !f.clamped[i] && propose(i) > f.hi[i] {
				grants[i] = f.hi[i]
				f.clamped[i] = true
				hiClamped = true
			}
		}
		if hiClamped {
			continue // recompute shares off the freed budget first
		}
		changed := false
		for i := 0; i < n; i++ {
			if f.clamped[i] {
				continue
			}
			if g := propose(i); g < f.lo[i] {
				grants[i] = f.lo[i]
				f.clamped[i] = true
				changed = true
			} else {
				grants[i] = g
			}
		}
		if !changed {
			return
		}
	}
}

// proportional loads the scratch with the member floors/peaks and a
// weight·peak (or plain peak) share, then fills — the cold-start seed
// and the whole of the two static arbiters.
func (f *fillScratch) proportional(budgetW float64, obs []Observation, grants []float64, weighted bool) RoundStats {
	f.grow(len(obs))
	for i, o := range obs {
		f.lo[i] = o.FloorW
		f.hi[i] = o.PeakW
		f.share[i] = o.PeakW
		if weighted {
			f.share[i] = o.Weight * o.PeakW
		}
	}
	f.fill(budgetW, grants)
	return RoundStats{FillPasses: f.passes}
}

// fund is the one funder behind the demand arbiters (slack, predictive,
// and — through fillAboveDemand — slo): each of them is only an
// estimator that loads f.demand with what it thinks member i wants, and
// fund turns the estimates into grants. Every demand is first clamped
// into [floor, peak]. When the demands outstrip the budget the floors
// are funded and the rest scaled back proportionally above them (every
// member exactly at its floor when even the floors do not fit);
// otherwise each demand is funded in full and the surplus water-filled
// on top of it.
func (f *fillScratch) fund(budgetW float64, obs []Observation, grants []float64) RoundStats {
	sumFloor, sumDemand := 0.0, 0.0
	for i := range obs {
		o := &obs[i]
		d := math.Min(math.Max(f.demand[i], o.FloorW), o.PeakW)
		f.demand[i] = d
		sumFloor += o.FloorW
		sumDemand += d
	}
	if sumDemand < budgetW {
		return f.fillAboveDemand(budgetW, obs, grants)
	}
	// The scaled-demand branches below resolve without a fill: no passes.
	if budgetW <= sumFloor {
		for i := range obs {
			grants[i] = obs[i].FloorW
		}
		return RoundStats{}
	}
	lambda := (budgetW - sumFloor) / (sumDemand - sumFloor)
	for i := range obs {
		floor := obs[i].FloorW
		grants[i] = floor + lambda*(f.demand[i]-floor)
	}
	return RoundStats{}
}

// fillAboveDemand funds every demand in f.demand in full and lands the
// surplus by weight × peak: the demands become the floor of a
// proportional fill, so reclaimed watts go to the members that can
// convert them (bounded by their peaks).
func (f *fillScratch) fillAboveDemand(budgetW float64, obs []Observation, grants []float64) RoundStats {
	for i := range obs {
		o := &obs[i]
		f.lo[i] = f.demand[i]
		f.hi[i] = o.PeakW
		f.share[i] = o.Weight * o.PeakW
	}
	f.fill(budgetW, grants)
	return RoundStats{FillPasses: f.passes}
}

// reactiveDemand is the slack arbiter's estimator (and the predictive
// arbiter's warm-up fallback): move the member's grant a gain-limited
// step toward its measured draw plus headroom — or, for a member held
// below top frequency on more than band of its cores, toward a grant
// grown by the headroom factor.
func reactiveDemand(o *Observation, band, headroom, gain float64) float64 {
	target := o.PowerW * headroom // satisfied: draw plus cushion
	if o.ThrottleFrac > band {
		target = o.GrantW * headroom // bound: grow, rate-limited
	}
	return o.GrantW + gain*(target-o.GrantW)
}

// coldStart reports whether any member has no completed epoch yet — the
// signal to reseed every grant proportionally instead of arbitrating on
// stale (or absent) slack measurements. The signal is the explicit
// Warm flag, not a GrantW == 0 sentinel: a member legitimately granted
// ~0 W (floor 0, budget exhausted by other members' demands) has real
// telemetry and must not silently re-trigger proportional reseeding.
func coldStart(obs []Observation) bool {
	for _, o := range obs {
		if !o.Warm {
			return true
		}
	}
	return false
}

// StaticProportional grants each member a fixed share of the global
// budget proportional to its machine's peak power, ignoring measured
// draw entirely. It is the predictable baseline the reclaiming arbiter
// is judged against.
type StaticProportional struct {
	noHistory
	f fillScratch
}

// NewStaticProportional returns the proportional-to-peak arbiter.
func NewStaticProportional() *StaticProportional { return &StaticProportional{} }

// Name implements Arbiter.
func (*StaticProportional) Name() string { return "static" }

// Rebalance implements Arbiter.
func (a *StaticProportional) Rebalance(budgetW float64, _ []string, obs []Observation, grants []float64) RoundStats {
	return a.f.proportional(budgetW, obs, grants, false)
}

// PriorityWeighted grants shares proportional to weight × peak: a
// weight-2 member gets twice the per-watt-of-peak share of a weight-1
// member. Like StaticProportional it ignores measured draw.
type PriorityWeighted struct {
	noHistory
	f fillScratch
}

// NewPriorityWeighted returns the priority-weighted arbiter.
func NewPriorityWeighted() *PriorityWeighted { return &PriorityWeighted{} }

// Name implements Arbiter.
func (*PriorityWeighted) Name() string { return "priority" }

// Rebalance implements Arbiter.
func (a *PriorityWeighted) Rebalance(budgetW float64, _ []string, obs []Observation, grants []float64) RoundStats {
	return a.f.proportional(budgetW, obs, grants, true)
}

// SlackReclaim shifts budget from members that leave watts on the table
// to members pressed against their cap. The discriminator is the
// member's DVFS state, not its utilization — a capping policy given a
// non-binding budget draws its workload's natural power (which can sit
// anywhere below the grant), so watts alone cannot separate "throttled"
// from "satisfied". Each epoch the arbiter computes a per-member demand
// and moves grants toward it:
//
//   - a member whose cores were held below their top frequency
//     (ThrottleFrac > ThrottleBand) is power-bound; its demand grows by
//     the Headroom factor so the policy gets room to raise frequencies;
//   - a member running every core at full frequency cannot convert more
//     watts; its demand settles at PowerW × Headroom and the difference
//     to its grant returns to the pool.
//
// Hysteresis comes from three places: the ThrottleBand dead zone (a
// marginally-shed core does not flip the member to "bound"), the Gain
// factor that applies only a fraction of each demand delta per epoch,
// and the Headroom cushion that keeps reclaimed members from being
// squeezed to their instantaneous draw. Demands are funded in full when
// the budget covers them (leftover distributed proportionally to
// weight × peak, so reclaimed watts land where they help) or scaled
// back proportionally above the floors when it does not.
type SlackReclaim struct {
	// ThrottleBand is the ThrottleFrac above which a member counts as
	// power-bound. Default 0.10 (more than a tenth of its cores shed).
	ThrottleBand float64
	// Headroom is the demand multiplier over measured draw (and the
	// per-epoch growth factor for power-bound members). Default 1.25.
	Headroom float64
	// Gain is the fraction of the demand delta applied per epoch, in
	// (0, 1]. Default 0.5.
	Gain float64

	noHistory
	f fillScratch
}

// NewSlackReclaim returns the slack-reclaiming arbiter with its default
// hysteresis parameters.
func NewSlackReclaim() *SlackReclaim {
	return &SlackReclaim{ThrottleBand: 0.10, Headroom: 1.25, Gain: 0.5}
}

// Name implements Arbiter.
func (*SlackReclaim) Name() string { return "slack" }

// Rebalance implements Arbiter.
func (a *SlackReclaim) Rebalance(budgetW float64, _ []string, obs []Observation, grants []float64) RoundStats {
	if coldStart(obs) {
		// Seed plain proportional-to-peak: weights express who deserves
		// surplus, not a bigger starting share — an inflated seed would
		// just be reclaimed again over the first epochs.
		return a.f.proportional(budgetW, obs, grants, false)
	}
	a.f.grow(len(obs))
	for i := range obs {
		a.f.demand[i] = reactiveDemand(&obs[i], a.ThrottleBand, a.Headroom, a.Gain)
	}
	return a.f.fund(budgetW, obs, grants)
}

// arbiterRegistry is the single source of truth for the named arbiters:
// ArbiterByName resolves against it and ArbiterNames exposes it, so the
// accepted names in serve, fastcap-tables and the experiment sweeps
// cannot drift apart (a registry-sync test asserts they match). Order
// is presentation order in tables and error messages.
var arbiterRegistry = []struct {
	name string
	make func() Arbiter
}{
	{"static", func() Arbiter { return NewStaticProportional() }},
	{"slack", func() Arbiter { return NewSlackReclaim() }},
	{"priority", func() Arbiter { return NewPriorityWeighted() }},
	{"slo", func() Arbiter { return NewSLOArbiter() }},
	{"predictive", func() Arbiter { return NewPredictiveArbiter() }},
}

// ArbiterNames returns the registered arbiter names in presentation
// order. The returned slice is freshly allocated.
func ArbiterNames() []string {
	names := make([]string, len(arbiterRegistry))
	for i, e := range arbiterRegistry {
		names[i] = e.name
	}
	return names
}

// ArbiterByName instantiates a fresh arbiter by registered name (see
// ArbiterNames). Instances keep scratch state — never share one across
// concurrent clusters.
func ArbiterByName(name string) (Arbiter, bool) {
	for _, e := range arbiterRegistry {
		if e.name == name {
			return e.make(), true
		}
	}
	return nil, false
}
