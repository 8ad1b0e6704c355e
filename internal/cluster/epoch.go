package cluster

import (
	"time"

	"repro/internal/runner"
)

// EpochMember is the arbitration state of one member — everything the
// epoch core reads to build the member's Observation and writes when
// the member's epoch completes. Both coordinators embed it in their own
// member type, next to what is genuinely theirs (a session and worker
// slot in process, an agent and a state machine on the wire).
type EpochMember struct {
	// ID names the member in records, arbiter history and SLO state.
	ID string
	// MemberParams are the member's normalized arbitration parameters.
	MemberParams
	// PeakW is the member machine's nameplate peak, FloorW its guaranteed
	// minimum grant (FloorFrac × PeakW) and EpochNs its control-epoch
	// length, the BIPS denominator.
	PeakW, FloorW, EpochNs float64

	// GrantW is the grant in force during the member's last (or current)
	// epoch; PowerW, ThrottleFrac and Instr are what that epoch measured.
	GrantW, PowerW, ThrottleFrac, Instr float64
	// Local is the number of member-local epochs completed.
	Local int
	// Warm marks the telemetry above as describing a really completed
	// epoch. Fold sets it; whoever admits the member (construction, or
	// Admit on a readmission) clears it, which is the cold-start signal
	// every arbiter reseeds on.
	Warm bool
}

// NewEpochMember builds the cold arbitration state of a member with
// already normalized parameters p.
func NewEpochMember(id string, p MemberParams, peakW, epochNs float64) EpochMember {
	return EpochMember{ID: id, MemberParams: p, PeakW: peakW, FloorW: p.FloorFrac * peakW, EpochNs: epochNs}
}

// Admit (re)admits the member with local epochs already behind it: the
// telemetry of any previous incarnation is dropped and the member
// arbitrates cold until its first epoch folds in.
func (m *EpochMember) Admit(local int) {
	m.GrantW, m.PowerW, m.ThrottleFrac, m.Instr = 0, 0, 0, 0
	m.Local = local
	m.Warm = false
}

// bips converts the member's last-epoch instruction count to a rate
// through DeriveBIPS — one guarded division for observations and record
// lines alike, Inf/NaN-free even for a degenerate epoch length.
func (m *EpochMember) bips() float64 {
	return DeriveBIPS(m.Instr, m.EpochNs)
}

// MemberReport is one completed member epoch as the epoch core folds
// it: built from a runner.EpochRecord where the session lives (ReportOf)
// and carried by a TypeReport frame when that is a remote agent.
type MemberReport struct {
	// Epoch is the member-local index of the epoch just executed.
	Epoch int
	// PowerW is the epoch's average measured power, ThrottleFrac the
	// fraction of cores held below their top DVFS step, Instr the total
	// instructions retired.
	PowerW, ThrottleFrac, Instr float64
	// Done marks the member's final epoch.
	Done bool
}

// ReportOf condenses a session's epoch record into the report the epoch
// core folds: average draw, shed-core throttle fraction against the
// per-core top steps maxSteps, and the per-core instruction sum in
// index order.
func ReportOf(r runner.EpochRecord, maxSteps []int, done bool) MemberReport {
	instr := 0.0
	for _, v := range r.Instr {
		instr += v
	}
	return MemberReport{
		Epoch: r.Epoch, PowerW: r.AvgPowerW,
		ThrottleFrac: throttleFrac(r.CoreSteps, maxSteps),
		Instr:        instr, Done: done,
	}
}

// throttleFrac measures how many cores the epoch's decision held below
// their top DVFS step.
func throttleFrac(coreSteps, maxSteps []int) float64 {
	if len(coreSteps) == 0 {
		return 0
	}
	shed := 0
	for i, st := range coreSteps {
		if st < maxSteps[i] {
			shed++
		}
	}
	return float64(shed) / float64(len(coreSteps))
}

// EpochCore is the per-epoch arithmetic of a cluster, written once:
// Arbitrate turns the live members' state into grants, Fold turns each
// completed member epoch into state plus a record line, Finish closes
// the record, Forget drops a departed member's history. The in-process
// Coordinator and the distributed one (internal/dist) both drive it and
// differ only in how a grant reaches a member and how its report comes
// back — so the two produce the same records by construction.
//
// One epoch is Arbitrate, then Fold for every member that completed it
// (in live order; a member that never reports is simply not folded),
// then Finish. The core does not lock: each coordinator calls it under
// the lock that already guards its members.
type EpochCore struct {
	arb Arbiter
	slo *SLOTracker
	met Metrics

	// Reused per-epoch scratch (allocation-free steady state).
	ids    []string
	obs    []Observation
	grants []float64

	// The epoch in flight: Σ grants pushed and the lines folded so far.
	grantedW float64
	lines    []MemberGrant

	// lineBuf backs the records' member lines in flat chunks: records
	// are retained by callers, so lines are carved, never reused.
	lineBuf []MemberGrant
	lineOff int
}

// NewEpochCore returns the epoch core of one cluster arbitrated by arb,
// which must not be shared with another cluster.
func NewEpochCore(arb Arbiter) *EpochCore {
	return &EpochCore{arb: arb, slo: NewSLOTracker()}
}

// SetMetrics installs the instrumentation handles (zero value:
// disabled). Call it before the first Arbitrate.
func (c *EpochCore) SetMetrics(m Metrics) { c.met = m }

// Arbitrate opens an epoch: it re-partitions budgetW across the live
// members on the observations of their last completed epochs and stamps
// each member's GrantW with the result. The error is ComputeGrants' —
// hostile telemetry or a NaN-granting arbiter — and leaves the members
// untouched.
func (c *EpochCore) Arbitrate(budgetW float64, live []*EpochMember) error {
	n := len(live)
	c.ids = c.ids[:0]
	c.obs = c.obs[:0]
	for _, m := range live {
		c.ids = append(c.ids, m.ID)
		c.obs = append(c.obs, Observation{
			PeakW: m.PeakW, FloorW: m.FloorW, Weight: m.Weight,
			GrantW: m.GrantW, PowerW: m.PowerW, ThrottleFrac: m.ThrottleFrac,
			Instr: m.Instr, BIPS: m.bips(), TargetBIPS: m.TargetBIPS,
			Warm: m.Warm,
		})
	}
	if cap(c.grants) < n {
		c.grants = make([]float64, n)
	}
	c.grants = c.grants[:n]
	start := time.Now()
	stats, err := computeGrants(c.arb, budgetW, c.ids, c.obs, c.grants)
	if err != nil {
		return err
	}
	c.met.ArbitrationSeconds.Observe(time.Since(start).Seconds())
	c.met.FillPasses.Add(uint64(stats.FillPasses))
	if stats.Forecast {
		c.met.PredictionErrW.Set(stats.PredictionErrW)
		c.met.PredictionAbsErrW.Observe(stats.PredictionErrW)
	}
	// GrantedW counts every member that enters the epoch, whether or not
	// it goes on to complete it: the watts were committed either way.
	c.grantedW = 0
	for i, m := range live {
		m.GrantW = c.grants[i]
		c.grantedW += m.GrantW
	}
	c.lines = c.memberLines(n)[:0]
	return nil
}

// Fold folds one member's completed epoch into its state and appends
// its grant/draw/slack line to the epoch's record.
func (c *EpochCore) Fold(m *EpochMember, r MemberReport) {
	m.PowerW, m.ThrottleFrac, m.Instr = r.PowerW, r.ThrottleFrac, r.Instr
	m.Local = r.Epoch + 1
	m.Warm = true
	mg := MemberGrant{
		ID: m.ID, Epoch: r.Epoch,
		GrantW: m.GrantW, PowerW: r.PowerW, SlackW: m.GrantW - r.PowerW,
		ThrottleFrac: r.ThrottleFrac, Instr: r.Instr, Done: r.Done,
	}
	if m.TargetBIPS > 0 {
		mg.BIPS = m.bips()
		mg.TargetBIPS = m.TargetBIPS
	}
	c.lines = append(c.lines, mg)
}

// Finish closes the epoch: it derives the SLO events from the folded
// lines, feeds the metric handles and returns the record. Events stays
// nil on a quiet epoch.
func (c *EpochCore) Finish(epoch int, budgetW float64) EpochRecord {
	rec := EpochRecord{Epoch: epoch, BudgetW: budgetW, GrantedW: c.grantedW, Members: c.lines}
	violations, satisfied, _ := c.slo.Apply(&rec)
	c.met.Epochs.Inc()
	c.met.SLOViolations.Add(uint64(violations))
	c.met.SLOSatisfied.Set(float64(satisfied))
	if c.met.DrawW != nil {
		draw := 0.0
		for i := range rec.Members {
			draw += rec.Members[i].PowerW
		}
		c.met.DrawW.Set(draw)
		c.met.SlackW.Set(rec.GrantedW - draw)
	}
	c.met.BudgetW.Set(budgetW)
	c.met.GrantW.Set(rec.GrantedW)
	c.met.Members.Set(float64(len(rec.Members)))
	return rec
}

// Forget drops a departing member's per-member model state: the SLO
// tracker's hysteresis and the arbiter's history. Coordinators call it
// on every pool-departure path — detach, eviction and abandonment alike
// — so a member readmitted later provably restarts cold instead of
// inheriting state from a previous incarnation.
func (c *EpochCore) Forget(id string) {
	c.slo.Forget(id)
	c.arb.Forget(id)
}

// memberLines carves the next n member lines out of the flat chunk,
// starting a fresh chunk when the current one is spent.
func (c *EpochCore) memberLines(n int) []MemberGrant {
	if c.lineOff+n > len(c.lineBuf) {
		c.lineBuf = make([]MemberGrant, n*64)
		c.lineOff = 0
	}
	s := c.lineBuf[c.lineOff : c.lineOff+n : c.lineOff+n]
	c.lineOff += n
	return s
}
