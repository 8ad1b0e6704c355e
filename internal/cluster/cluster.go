// Package cluster coordinates one global power budget across many
// capping sessions — the fleet-level layer above runner. A Coordinator
// owns N member runner.Sessions and arbitrates a shared watt budget
// between them at epoch boundaries: each epoch it collects every
// member's measured power from the completed window, computes slack
// (grant minus draw), re-partitions the global budget through a
// pluggable Arbiter, and pushes the new per-member caps through
// SetBudgetFrac before stepping everyone's next epoch in lockstep.
//
// Members step concurrently on a bounded worker pool, but the protocol
// is epoch-synchronized and every arbitration input is assembled in
// member order, so the per-member grant stream and final results are
// bit-identical at any worker count — the same determinism contract as
// the experiment engine and the serving layer, extended one level up.
//
// The serving layer exposes Coordinators as cluster groups (POST
// /clusters); experiments.Lab.FleetSweep compares the arbiters.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/runner"
)

// DefaultFloorFrac is the guaranteed minimum grant of a member that
// does not set its own floor: 10% of the member machine's peak.
const DefaultFloorFrac = 0.1

// ErrDone is returned by Coordinator.Step once every member has
// finished (or Results finalized the cluster). Normal termination, not
// failure.
var ErrDone = errors.New("cluster: all members done")

// ErrConcurrentStep is returned by Step when another Step (or a
// Results finalization) is already in flight. The arbitration loop is
// strictly sequential; a second concurrent driver is a caller bug,
// refused typed instead of racing.
var ErrConcurrentStep = errors.New("cluster: concurrent Step on coordinator")

// ErrUnknownMember reports a Detach target that is not (or no longer)
// a member of the cluster.
var ErrUnknownMember = errors.New("cluster: unknown member")

// Member describes one tenant of the cluster: a session plus its
// arbitration parameters. The Session must be exclusively owned by the
// Coordinator from Attach/New on — nothing else may Step it.
type Member struct {
	// ID names the member in records and Detach calls. Required,
	// unique within the cluster.
	ID string
	// Weight is the priority-weighted arbiter's share multiplier.
	// 0 defaults to 1; otherwise it must be positive and finite.
	Weight float64
	// FloorFrac is the member's guaranteed minimum grant as a fraction
	// of its machine's peak, in (0, 1]. 0 defaults to DefaultFloorFrac.
	FloorFrac float64
	// TargetBIPS is the member's optional throughput SLO in
	// giga-instructions per second. 0 means no contract: the member is
	// arbitrated on watts alone and never produces SLO events.
	TargetBIPS float64
	// Session is the member's capping run.
	Session *runner.Session
}

// Config bounds the Coordinator.
type Config struct {
	// BudgetW is the global power budget arbitrated across members, in
	// watts. Required, positive and finite.
	BudgetW float64
	// Arbiter re-partitions the budget each epoch. Defaults to
	// NewStaticProportional(). The instance must not be shared with
	// another cluster.
	Arbiter Arbiter
	// Workers bounds how many members step their epoch concurrently.
	// Defaults to GOMAXPROCS. Output is identical at any worker count.
	Workers int
}

// MemberGrant is one member's line of a cluster epoch record.
type MemberGrant struct {
	ID string `json:"id"`
	// Epoch is the member-local epoch index just executed (equals the
	// cluster epoch for founding members, lags for attached ones).
	Epoch int `json:"epoch"`
	// GrantW is the budget the member held during this epoch; PowerW
	// what it measured; SlackW their difference.
	GrantW float64 `json:"grant_w"`
	PowerW float64 `json:"power_w"`
	SlackW float64 `json:"slack_w"`
	// ThrottleFrac is the fraction of the member's cores its capping
	// policy held below top frequency this epoch (the slack arbiter's
	// power-bound signal).
	ThrottleFrac float64 `json:"throttle_frac"`
	// Instr is the member's total instructions retired this epoch.
	Instr float64 `json:"instr"`
	// BIPS is Instr as a rate (giga-instructions per second) and
	// TargetBIPS the member's declared SLO; both appear only for
	// contracted members, so contract-free streams stay byte-identical
	// to pre-SLO builds.
	BIPS       float64 `json:"bips,omitempty"`
	TargetBIPS float64 `json:"target_bips,omitempty"`
	// SLOViolated marks a contracted member currently below its target
	// (transitions are additionally reported as EpochRecord.Events).
	SLOViolated bool `json:"slo_violated,omitempty"`
	// Done marks the member's final epoch.
	Done bool `json:"done,omitempty"`
}

// EpochRecord is one cluster epoch: the global budget in force, the sum
// actually granted, and every live member's grant/draw/slack line.
type EpochRecord struct {
	Epoch int `json:"epoch"`
	// BudgetW is the global budget in force; GrantedW the sum of member
	// grants (less than BudgetW when members cannot absorb it, more
	// only when floors force it).
	BudgetW  float64       `json:"budget_w"`
	GrantedW float64       `json:"granted_w"`
	Members  []MemberGrant `json:"members"`
	// Events are the epoch's SLO boundary crossings (violations and
	// restorations), in member order. Nil on quiet epochs — and always
	// nil for contract-free clusters, preserving their golden streams.
	Events []SLOEvent `json:"events,omitempty"`
}

// MemberResult pairs a member with its finalized run aggregate.
type MemberResult struct {
	ID     string         `json:"id"`
	Result *runner.Result `json:"result"`
}

// member is the coordinator-side state of one tenant: the epoch core's
// arbitration state plus the session the in-process driver steps.
type member struct {
	EpochMember
	Session  *runner.Session
	maxSteps []int // each core's top ladder step (throttle reference)
	total    int   // the session's configured run length
	done     bool  // ran its last epoch
	detached bool  // removed by Detach; result finalized
}

// Coordinator arbitrates one global power budget across its members.
// Step is single-driver (a concurrent Step fails typed with
// ErrConcurrentStep); SetBudgetW, Attach, Detach and Epoch may be
// called concurrently with Step and take effect at the next epoch
// boundary, deterministically.
type Coordinator struct {
	cfg Config

	// mu guards the retargetable budget, the pending membership ops,
	// the members slice layout (Step mutates it only inside
	// applyPending, which holds mu), and the done latch.
	mu            sync.Mutex
	budgetW       float64
	pendingAttach []*member
	pendingDetach []string
	members       []*member
	// done latches when the coordinator finalizes (every member
	// finished, or Results was called). Attach/Detach check it under mu
	// so a membership op can never be queued past the last boundary and
	// silently ignored.
	done bool

	// stepMu serializes Step and Results, Session-style.
	stepMu    sync.Mutex
	epoch     atomic.Int64
	total     atomic.Int64 // cluster epochs until every member is done
	err       error        // sticky: first failure poisons the cluster
	finalized bool

	// core is the epoch arithmetic shared with the distributed
	// coordinator: arbitration, record assembly, SLO tracking, metrics.
	// Step drives it under stepMu, applyPending under stepMu and mu.
	core *EpochCore

	// Reused per-epoch scratch (allocation-free steady state): the live
	// members, their core state in the same order, and the worker pool's
	// per-member outcomes.
	live     []*member
	states   []*EpochMember
	stepRecs []runner.EpochRecord
	stepErrs []error
}

// MemberParams is a member's arbitration-parameter bundle — the
// contract half of the member-telemetry seam, shared verbatim by the
// in-process Coordinator, the serving layer's pure request resolution
// and the distributed protocol so the bounds cannot drift between them.
// It grows with the contract (TargetBIPS today); call sites that pass
// the whole bundle pick new fields up automatically.
type MemberParams struct {
	// Weight is the priority-weighted share multiplier. 0 defaults to 1.
	Weight float64
	// FloorFrac is the guaranteed minimum grant as a fraction of the
	// member machine's peak, in (0, 1]. 0 defaults to DefaultFloorFrac.
	FloorFrac float64
	// TargetBIPS is the optional throughput SLO in giga-instructions
	// per second; 0 means no contract. Negative, NaN and infinite
	// targets are rejected.
	TargetBIPS float64
}

// Normalize validates the bundle and applies defaults, returning the
// normalized copy. NaN, infinite and out-of-range values fail with
// runner.ErrInvalidConfig; id labels the member in errors.
func (p MemberParams) Normalize(id string) (MemberParams, error) {
	if p.Weight == 0 {
		p.Weight = 1
	}
	if math.IsNaN(p.Weight) || math.IsInf(p.Weight, 0) || p.Weight <= 0 {
		return MemberParams{}, fmt.Errorf("%w: member %q weight %g, want positive and finite", runner.ErrInvalidConfig, id, p.Weight)
	}
	if p.FloorFrac == 0 {
		p.FloorFrac = DefaultFloorFrac
	}
	if math.IsNaN(p.FloorFrac) || p.FloorFrac < 0 || p.FloorFrac > 1 {
		return MemberParams{}, fmt.Errorf("%w: member %q floor fraction %g outside (0, 1]", runner.ErrInvalidConfig, id, p.FloorFrac)
	}
	if math.IsNaN(p.TargetBIPS) || math.IsInf(p.TargetBIPS, 0) || p.TargetBIPS < 0 {
		return MemberParams{}, fmt.Errorf("%w: member %q target %g BIPS, want finite and >= 0", runner.ErrInvalidConfig, id, p.TargetBIPS)
	}
	return p, nil
}

// admit validates m against every member admitted so far (founding,
// attached or still pending), normalizes its parameters and wraps it.
// Callers hold c.mu, or own c alone (New).
func (c *Coordinator) admit(m Member) (*member, error) {
	if m.Session == nil {
		return nil, fmt.Errorf("%w: member %q has no session", runner.ErrInvalidConfig, m.ID)
	}
	if m.ID == "" {
		return nil, fmt.Errorf("%w: member with empty id", runner.ErrInvalidConfig)
	}
	for _, admitted := range [2][]*member{c.members, c.pendingAttach} {
		for _, ex := range admitted {
			if ex.ID == m.ID {
				return nil, fmt.Errorf("%w: duplicate member id %q", runner.ErrInvalidConfig, m.ID)
			}
			if ex.Session == m.Session {
				return nil, fmt.Errorf("%w: member %q shares a session with another member", runner.ErrInvalidConfig, m.ID)
			}
		}
	}
	p, err := MemberParams{Weight: m.Weight, FloorFrac: m.FloorFrac, TargetBIPS: m.TargetBIPS}.Normalize(m.ID)
	if err != nil {
		return nil, err
	}
	peak := m.Session.PeakPowerW()
	if math.IsNaN(peak) || peak <= 0 {
		return nil, fmt.Errorf("%w: member %q platform peak %g W, want > 0", runner.ErrInvalidConfig, m.ID, peak)
	}
	return &member{
		EpochMember: NewEpochMember(m.ID, p, peak, m.Session.EpochNs()),
		Session:     m.Session,
		maxSteps:    m.Session.MaxCoreSteps(),
		total:       m.Session.TotalEpochs(),
	}, nil
}

// ValidBudgetW validates a global watt budget: NaN, infinite and
// non-positive values fail with runner.ErrInvalidConfig. Exported so
// the serving layer's pure request validation enforces exactly the
// bounds the Coordinator does — one source of truth, like MemberParams.
func ValidBudgetW(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
		return fmt.Errorf("%w: global budget %g W, want positive and finite", runner.ErrInvalidConfig, w)
	}
	return nil
}

// New validates the configuration and members and builds a Coordinator.
// The first Step call executes cluster epoch 0. Sessions handed in must
// not be stepped (or finalized) by anyone else afterwards.
func New(cfg Config, members []Member) (*Coordinator, error) {
	if err := ValidBudgetW(cfg.BudgetW); err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: cluster has no members", runner.ErrInvalidConfig)
	}
	if cfg.Arbiter == nil {
		cfg.Arbiter = NewStaticProportional()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	c := &Coordinator{cfg: cfg, budgetW: cfg.BudgetW, core: NewEpochCore(cfg.Arbiter)}
	maxTotal := 0
	for _, m := range members {
		mm, err := c.admit(m)
		if err != nil {
			return nil, err
		}
		c.members = append(c.members, mm)
		if mm.total > maxTotal {
			maxTotal = mm.total
		}
	}
	c.total.Store(int64(maxTotal))
	return c, nil
}

// TotalEpochs returns how many cluster epochs the current membership
// runs for — the latest-finishing live member's horizon. Attaching
// extends it; detaches and early finishes shrink it at the next
// boundary. Safe to call concurrently with Step.
func (c *Coordinator) TotalEpochs() int { return int(c.total.Load()) }

// BudgetW returns the global budget currently in force (the pending
// value after a retarget, ahead of the boundary that applies it).
func (c *Coordinator) BudgetW() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budgetW
}

// Name returns the arbiter's name.
func (c *Coordinator) Name() string { return c.cfg.Arbiter.Name() }

// SetBudgetW retargets the global budget: from the next epoch on, the
// arbiter partitions w watts. NaN, infinite and non-positive values are
// rejected with runner.ErrInvalidConfig. Safe to call concurrently with
// Step; the change takes effect at the next epoch boundary, never the
// epoch in progress.
func (c *Coordinator) SetBudgetW(w float64) error {
	if err := ValidBudgetW(w); err != nil {
		return err
	}
	c.mu.Lock()
	c.budgetW = w
	c.mu.Unlock()
	return nil
}

// Attach adds a member starting at the next epoch boundary. A
// membership change reseeds every grant proportionally (the arbiter
// restarts from the seed), keeping the post-attach allocation
// independent of when the attach raced the epoch in progress.
// Attaching to a finished cluster fails with ErrDone — there is no
// boundary left for the member to join at.
func (c *Coordinator) Attach(m Member) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return fmt.Errorf("%w: cannot attach %q", ErrDone, m.ID)
	}
	p, err := c.admit(m)
	if err != nil {
		return err
	}
	c.pendingAttach = append(c.pendingAttach, p)
	// Extend the horizon estimate immediately so supervisors consulting
	// TotalEpochs (e.g. the serve layer's final-epoch retarget guard)
	// see the extension before the boundary applies it; applyPending
	// recomputes the exact value with the boundary's epoch index. When
	// the attach races an in-flight Step the estimate is deliberately
	// one epoch conservative (the member joins at the *next* boundary):
	// a supervisor's final-epoch check then refuses with a retryable
	// conflict for one epoch at worst, instead of accepting an
	// operation that would silently never apply.
	if h := int64(int(c.epoch.Load()) + p.total); h > c.total.Load() {
		c.total.Store(h)
	}
	return nil
}

// Detach removes a member at the next epoch boundary: it stops being
// stepped and its prefix result is finalized (still reported by
// Results). Detaching a member whose attach is still pending revokes
// the attach instead — the member never ran, never joins Results, and
// pending=true tells the caller to erase it from its own bookkeeping.
// Unknown ids fail with ErrUnknownMember; a finished cluster has no
// boundary left, so Detach fails with ErrDone.
func (c *Coordinator) Detach(id string) (pending bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return false, fmt.Errorf("%w: cannot detach %q", ErrDone, id)
	}
	for _, m := range c.members {
		if m.ID == id && !m.detached {
			c.pendingDetach = append(c.pendingDetach, id)
			return false, nil
		}
	}
	for i, p := range c.pendingAttach {
		if p.ID == id {
			c.pendingAttach = append(c.pendingAttach[:i], c.pendingAttach[i+1:]...)
			return true, nil
		}
	}
	return false, fmt.Errorf("%w: %q", ErrUnknownMember, id)
}

// applyPending folds queued attaches/detaches into the member set at an
// epoch boundary. An attached member arrives cold (Warm == false), which
// makes every arbiter reseed the whole fleet proportionally.
func (c *Coordinator) applyPending() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.pendingDetach {
		for _, m := range c.members {
			if m.ID == id && !m.detached {
				m.detached = true
				m.Session.Result() // finalize the prefix
				c.core.Forget(id)
			}
		}
	}
	c.pendingDetach = c.pendingDetach[:0]
	cur := int(c.epoch.Load())
	c.members = append(c.members, c.pendingAttach...)
	c.pendingAttach = c.pendingAttach[:0]
	// Recompute the horizon from the members that will actually keep
	// running — a detach of the longest-running member shrinks it, so
	// supervisors consulting TotalEpochs (the serve final-epoch retarget
	// guard, status reporting) see the real remaining run, not a stale
	// upper bound.
	horizon := cur
	for _, m := range c.members {
		if m.done || m.detached {
			continue
		}
		if h := cur + m.total - m.Local; h > horizon {
			horizon = h
		}
	}
	c.total.Store(int64(horizon))
}

// Step executes one cluster epoch: apply pending membership and budget
// changes, arbitrate the global budget across live members, push the
// new caps, and advance every live member exactly one control epoch
// (concurrently, up to Config.Workers at a time). It returns the
// epoch's record, ErrDone once every member has finished, and
// ErrConcurrentStep if another Step or Results is in flight. Any member
// failure or context error is sticky.
func (c *Coordinator) Step(ctx context.Context) (EpochRecord, error) {
	if !c.stepMu.TryLock() {
		return EpochRecord{}, ErrConcurrentStep
	}
	defer c.stepMu.Unlock()
	if c.err != nil {
		return EpochRecord{}, c.err
	}
	if c.finalized {
		return EpochRecord{}, ErrDone
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			c.err = err
			return EpochRecord{}, err
		}
	}

	for {
		c.applyPending()
		c.live = c.live[:0]
		c.states = c.states[:0]
		for _, m := range c.members {
			if !m.done && !m.detached {
				c.live = append(c.live, m)
				c.states = append(c.states, &m.EpochMember)
			}
		}
		if len(c.live) > 0 {
			break
		}
		// Nobody left to step: latch done — unless an attach raced in
		// after applyPending, in which case fold it in and keep going.
		// The latch is taken under mu, so Attach/Detach either land
		// before it (and are honored) or observe done and fail typed.
		c.mu.Lock()
		if len(c.pendingAttach) > 0 {
			c.mu.Unlock()
			continue
		}
		c.done = true
		c.mu.Unlock()
		c.finalized = true
		return EpochRecord{}, ErrDone
	}
	budget := c.BudgetW()

	// Arbitrate on the completed epoch's observations, push the caps,
	// then step everyone's epoch under them.
	if err := c.core.Arbitrate(budget, c.states); err != nil {
		c.err = err
		return EpochRecord{}, c.err
	}
	for _, m := range c.live {
		if err := m.Session.SetBudgetFrac(m.GrantW / m.PeakW); err != nil {
			c.err = fmt.Errorf("cluster: member %q grant %g W of %g W peak: %w", m.ID, m.GrantW, m.PeakW, err)
			return EpochRecord{}, c.err
		}
	}
	n := len(c.live)
	if cap(c.stepRecs) < n {
		c.stepRecs = make([]runner.EpochRecord, n)
		c.stepErrs = make([]error, n)
	}
	c.stepRecs = c.stepRecs[:n]
	c.stepErrs = c.stepErrs[:n]
	c.parallelStep(ctx, n)
	for i, err := range c.stepErrs {
		if err == nil || errors.Is(err, runner.ErrDone) {
			continue
		}
		c.err = fmt.Errorf("cluster: member %q: %w", c.live[i].ID, err)
		return EpochRecord{}, c.err
	}

	for i, m := range c.live {
		if errors.Is(c.stepErrs[i], runner.ErrDone) {
			// Defensive: a session finalized behind our back. Retire it
			// without a line, like a remote member that never reports.
			m.done = true
			continue
		}
		r := c.stepRecs[i]
		m.done = r.Epoch+1 >= m.total
		c.core.Fold(&m.EpochMember, ReportOf(r, m.maxSteps, m.done))
		if m.done {
			m.Session.Result()
		}
	}
	rec := c.core.Finish(int(c.epoch.Load()), budget)
	c.epoch.Add(1)
	return rec, nil
}

// parallelStep advances every live member one epoch on the worker pool,
// recording each outcome at the member's index — submission order, so
// the epoch's results are identical at any worker count.
func (c *Coordinator) parallelStep(ctx context.Context, n int) {
	workers := c.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			c.stepRecs[i], c.stepErrs[i] = c.live[i].Session.Step(ctx)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				c.stepRecs[i], c.stepErrs[i] = c.live[i].Session.Step(ctx)
			}
		}()
	}
	wg.Wait()
}

// Results finalizes every member session and returns their aggregates
// in membership order (founding order, then attach order; detached and
// finished members included with their prefix results). Finalizing ends
// the cluster: subsequent Steps return ErrDone. Results serializes
// against Step — a concurrent caller blocks until the in-flight epoch
// completes.
func (c *Coordinator) Results() []MemberResult {
	c.stepMu.Lock()
	defer c.stepMu.Unlock()
	c.finalized = true
	c.mu.Lock()
	c.done = true
	members := append([]*member(nil), c.members...)
	c.mu.Unlock()
	out := make([]MemberResult, len(members))
	for i, m := range members {
		out[i] = MemberResult{ID: m.ID, Result: m.Session.Result()}
	}
	return out
}
