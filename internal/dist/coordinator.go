package dist

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/httpjson"
	"repro/internal/runner"
)

// Config bounds the distributed coordinator. All durations are in the
// transport's timebase (virtual nanoseconds under SimNet, wall
// nanoseconds over HTTP).
type Config struct {
	// BudgetW is the global power budget arbitrated across members.
	// Required, positive and finite.
	BudgetW float64
	// Arbiter re-partitions the budget each epoch. Defaults to
	// cluster.NewStaticProportional(). Never share an instance.
	Arbiter cluster.Arbiter
	// Expect is how many members the coordinator gathers before running
	// epoch 0 (announces beyond it still join at later boundaries).
	// Required, >= 1.
	Expect int
	// JoinTimeoutNs bounds the gather phase; if it expires with at
	// least one member, the cluster starts short-handed. Default 30 s.
	JoinTimeoutNs int64
	// EpochDeadlineNs is the straggler deadline: a live member whose
	// report has not arrived this long after the epoch's grants were
	// pushed is evicted. Default 10 s.
	EpochDeadlineNs int64
	// GraceNs is how long an empty arbitration pool waits for an
	// evicted member to re-announce before the run is abandoned.
	// Defaults to EpochDeadlineNs.
	GraceNs int64
	// MaxEpochs hard-bounds the cluster epoch count so adversarial
	// fault schedules (eviction/readmission churn that never converges)
	// terminate. Default 100 000.
	MaxEpochs int
	// Metrics enables instrumentation (see NewMetrics). The zero value
	// disables it; metrics never influence the grant stream.
	Metrics Metrics
}

// Event is one typed pressure event of the degradation sequence:
// membership changes the coordinator decided, in decision order.
type Event struct {
	Epoch int `json:"epoch"`
	// Type is "join", "readmit", "evict", "detach" or "abandon".
	Type   string `json:"type"`
	Member string `json:"member"`
	Agent  string `json:"agent,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// memberState is a member's position in the coordinator's state
// machine:
//
//	pending ──▶ live ──▶ done
//	   ▲          │└───▶ detached
//	   └─(announce)─ evicted ──▶ abandoned
//
// pending→live at an epoch boundary (welcome); live→evicted when the
// straggler deadline fires; evicted→pending when the agent
// re-announces; evicted/live→abandoned when the run terminates without
// recovery.
type memberState int

const (
	statePending memberState = iota
	stateLive
	stateEvicted
	stateDone
	stateDetached
	stateAbandoned
)

func (s memberState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateLive:
		return "live"
	case stateEvicted:
		return "evicted"
	case stateDone:
		return "done"
	case stateDetached:
		return "detached"
	case stateAbandoned:
		return "abandoned"
	}
	return "invalid"
}

// dmember is the coordinator-side state of one remote member: the epoch
// core's arbitration state plus its place in the wire protocol.
type dmember struct {
	cluster.EpochMember
	agent string
	total int

	state  memberState
	joined bool // admitted at least once (join vs readmit events)
	// pendingDone is the member-local epoch count to adopt when the
	// pending admission lands (the agent's journal length).
	pendingDone int
	// Barrier staging for the epoch in flight.
	reported bool
	rep      cluster.MemberReport

	result *runner.Result
}

// Coordinator is the network-facing half of the cluster layer: it owns
// the global budget and the epoch barrier and arbitrates across members
// hosted by remote agents. Run drives the protocol on the caller's
// goroutine; records, events, results and status may be read
// concurrently.
type Coordinator struct {
	cfg Config

	// mu guards everything below: Run mutates under it, observers
	// snapshot under it, streamers cond-wait on it.
	mu       sync.Mutex
	cond     *sync.Cond
	budgetW  float64
	members  []*dmember // announce order — record, result and obs order
	byID     map[string]*dmember
	epoch    int
	records  []cluster.EpochRecord
	events   []Event
	finished bool
	runErr   error

	// core is the epoch arithmetic shared with the in-process
	// cluster.Coordinator — arbitration, record assembly, SLO tracking,
	// metrics — which is what makes the two record streams equal by
	// construction. It does not lock; every call is made under mu.
	core *cluster.EpochCore

	// Per-epoch scratch: the live members and, in the same order, their
	// core state.
	live   []*dmember
	states []*cluster.EpochMember
}

// MemberStatus describes one member of a coordinator snapshot.
type MemberStatus struct {
	ID     string  `json:"id"`
	Agent  string  `json:"agent"`
	State  string  `json:"state"`
	Epochs int     `json:"epochs"`
	Total  int     `json:"total"`
	GrantW float64 `json:"grant_w"`
}

// CoordStatus is a coordinator's externally visible snapshot.
type CoordStatus struct {
	Epoch    int            `json:"epoch"`
	BudgetW  float64        `json:"budget_w"`
	Arbiter  string         `json:"arbiter"`
	Finished bool           `json:"finished"`
	Error    string         `json:"error,omitempty"`
	Members  []MemberStatus `json:"members"`
}

// NewCoordinator validates the configuration and builds an idle
// coordinator; Run starts the protocol.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cluster.ValidBudgetW(cfg.BudgetW); err != nil {
		return nil, err
	}
	if cfg.Expect < 1 {
		return nil, fmt.Errorf("%w: coordinator expects %d members, want >= 1", runner.ErrInvalidConfig, cfg.Expect)
	}
	if cfg.Arbiter == nil {
		cfg.Arbiter = cluster.NewStaticProportional()
	}
	if cfg.JoinTimeoutNs <= 0 {
		cfg.JoinTimeoutNs = 30e9
	}
	if cfg.EpochDeadlineNs <= 0 {
		cfg.EpochDeadlineNs = 10e9
	}
	if cfg.GraceNs <= 0 {
		cfg.GraceNs = cfg.EpochDeadlineNs
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 100_000
	}
	c := &Coordinator{cfg: cfg, budgetW: cfg.BudgetW, byID: make(map[string]*dmember), core: cluster.NewEpochCore(cfg.Arbiter)}
	c.core.SetMetrics(cfg.Metrics.core)
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// SetBudgetW retargets the global budget; the new value is read at the
// next epoch boundary, exactly like cluster.Coordinator.SetBudgetW.
func (c *Coordinator) SetBudgetW(w float64) error {
	if err := cluster.ValidBudgetW(w); err != nil {
		return err
	}
	c.mu.Lock()
	c.budgetW = w
	c.mu.Unlock()
	return nil
}

// Run executes the coordinator protocol over tr until every member is
// done (or detached/abandoned), then drains outstanding results and
// returns. The error is non-nil only for fatal coordinator failures —
// no members ever announcing, a NaN-granting arbiter, a broken
// transport. Member faults degrade the membership, never fail the run.
func (c *Coordinator) Run(tr Transport) error {
	err := c.run(tr)
	c.mu.Lock()
	c.finished = true
	c.runErr = err
	c.cond.Broadcast()
	c.mu.Unlock()
	return err
}

func (c *Coordinator) run(tr Transport) error {
	// Gather: collect announces until the expected quorum (or the join
	// timeout, starting short-handed with whoever showed up).
	deadline := tr.Now() + c.cfg.JoinTimeoutNs
	for c.memberCount() < c.cfg.Expect {
		env, timeout, err := tr.Recv(deadline)
		if err != nil {
			return err
		}
		if timeout {
			break
		}
		c.dispatch(tr, env, 0)
	}
	if c.memberCount() == 0 {
		return fmt.Errorf("%w: no members announced within the join timeout", runner.ErrInvalidConfig)
	}

	for e := 0; ; {
		c.applyBoundary(tr, e)
		live := c.liveMembers()
		if len(live) == 0 {
			if !c.anyIn(stateEvicted, statePending) {
				break
			}
			got, err := c.graceWait(tr, e)
			if err != nil {
				return err
			}
			if !got {
				c.abandonStragglers(e, "grace expired with no readmission")
				break
			}
			continue // boundary re-applies with the new announce
		}
		if e >= c.cfg.MaxEpochs {
			c.abandonStragglers(e, "cluster epoch limit reached")
			break
		}
		if err := c.runEpoch(tr, e, live); err != nil {
			return err
		}
		e++
	}
	c.drainResults(tr)
	return nil
}

func (c *Coordinator) memberCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.members)
}

// applyBoundary folds pending admissions (joins and readmissions) into
// the live set — the distributed applyPending. Readmission lands here
// and only here: an announce mid-epoch waits for the boundary.
func (c *Coordinator) applyBoundary(tr Transport, e int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if m.state != statePending {
			continue
		}
		m.Admit(m.pendingDone) // cold: the arbiters reseed on it
		m.reported = false
		ev := Event{Epoch: e, Type: "join", Member: m.ID, Agent: m.agent}
		if m.joined {
			ev.Type = "readmit"
		}
		if m.Local >= m.total {
			// The agent's journal already covers the whole run (it
			// finished an epoch whose report was lost, then recovered).
			// Nothing left to arbitrate; ack and await the result.
			m.state = stateDone
			ev.Reason = "already finished"
		} else {
			m.state = stateLive
			m.joined = true
		}
		tr.Send(m.agent, Msg{Type: TypeWelcome, Member: m.ID, Epoch: e})
		c.eventLocked(ev)
	}
}

// liveMembers rebuilds the epoch's live list in member (announce)
// order — the order every arbitration input and record line uses.
func (c *Coordinator) liveMembers() []*dmember {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live = c.live[:0]
	c.states = c.states[:0]
	for _, m := range c.members {
		if m.state == stateLive {
			c.live = append(c.live, m)
			c.states = append(c.states, &m.EpochMember)
		}
	}
	return c.live
}

// anyIn reports whether some member is in one of the given states.
func (c *Coordinator) anyIn(states ...memberState) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		for _, st := range states {
			if m.state == st {
				return true
			}
		}
	}
	return false
}

// graceWait blocks until an evicted member re-announces or the grace
// deadline expires with the pool still empty.
func (c *Coordinator) graceWait(tr Transport, e int) (bool, error) {
	deadline := tr.Now() + c.cfg.GraceNs
	for {
		if c.anyIn(statePending) {
			return true, nil
		}
		env, timeout, err := tr.Recv(deadline)
		if err != nil {
			return false, err
		}
		if timeout {
			return c.anyIn(statePending), nil
		}
		c.dispatch(tr, env, e)
	}
}

func (c *Coordinator) abandonStragglers(e int, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		switch m.state {
		case stateLive, stateEvicted, statePending:
			m.state = stateAbandoned
			c.core.Forget(m.ID)
			c.eventLocked(Event{Epoch: e, Type: "abandon", Member: m.ID, Agent: m.agent, Reason: reason})
		}
	}
}

// runEpoch is one cluster epoch: arbitrate, push grants, run the
// barrier to the straggler deadline, evict non-reporters, emit the
// record. The deadline always fires — the barrier cannot hang.
func (c *Coordinator) runEpoch(tr Transport, e int, live []*dmember) error {
	c.mu.Lock()
	budget := c.budgetW
	// A boundary admission cleared its own warm flag, which is the
	// cold-start signal every arbiter reseeds on.
	err := c.core.Arbitrate(budget, c.states)
	for _, m := range live {
		m.reported = false
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	for _, m := range live {
		tr.Send(m.agent, Msg{Type: TypeGrant, Member: m.ID, Epoch: e, GrantW: m.GrantW})
	}

	deadline := tr.Now() + c.cfg.EpochDeadlineNs
	for c.unreported(live) > 0 {
		env, timeout, err := tr.Recv(deadline)
		if err != nil {
			return err
		}
		if timeout {
			break
		}
		c.dispatch(tr, env, e)
	}

	c.mu.Lock()
	for _, m := range live {
		if m.state == stateLive && !m.reported {
			m.state = stateEvicted
			c.core.Forget(m.ID)
			c.eventLocked(Event{Epoch: e, Type: "evict", Member: m.ID, Agent: m.agent, Reason: "missed the epoch straggler deadline"})
			tr.Send(m.agent, Msg{Type: TypeEvict, Member: m.ID, Epoch: e})
		}
	}
	// The epoch record: GrantedW covers every member that entered the
	// barrier, the grant/draw/slack lines those that answered it.
	for _, m := range live {
		if !m.reported {
			continue
		}
		m.reported = false
		c.core.Fold(&m.EpochMember, m.rep)
		if m.rep.Done {
			m.state = stateDone
		}
	}
	c.records = append(c.records, c.core.Finish(e, budget))
	c.epoch = e + 1
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

func (c *Coordinator) unreported(live []*dmember) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range live {
		if m.state == stateLive && !m.reported {
			n++
		}
	}
	return n
}

// drainResults gives finished members whose result message is still in
// flight one bounded window to deliver it; whatever is missing after
// that stays nil in Results — a typed degradation, not a hang.
func (c *Coordinator) drainResults(tr Transport) {
	missing := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, m := range c.members {
			if m.state == stateDone && m.result == nil {
				n++
			}
		}
		return n
	}
	if missing() == 0 {
		return
	}
	deadline := tr.Now() + c.cfg.EpochDeadlineNs
	for missing() > 0 {
		env, timeout, err := tr.Recv(deadline)
		if err != nil || timeout {
			return
		}
		c.dispatch(tr, env, c.epochNow())
	}
}

func (c *Coordinator) epochNow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// dispatch routes one inbound message. e is the cluster epoch whose
// barrier (if any) is in flight — reports for any other epoch are
// stale duplicates and dropped idempotently.
func (c *Coordinator) dispatch(tr Transport, env Envelope, e int) {
	switch env.Msg.Type {
	case TypeAnnounce:
		c.handleAnnounce(tr, env.Agent, env.Msg, e)
	case TypeReport:
		c.handleReport(env.Agent, env.Msg, e)
	case TypeResult:
		c.handleResult(env.Agent, env.Msg)
	case TypeDetach:
		c.handleDetach(env.Agent, env.Msg, e)
	case TypeHeartbeat:
		// Liveness only; the barrier judges members by reports.
		c.cfg.Metrics.heartbeats.Inc()
	default:
		// Coordinator-bound surface only; echoes of our own message
		// types are dropped.
	}
}

func (c *Coordinator) handleAnnounce(tr Transport, agent string, m Msg, e int) {
	p, err := cluster.MemberParams{Weight: m.Weight, FloorFrac: m.FloorFrac, TargetBIPS: m.TargetBIPS}.Normalize(m.Member)
	if err != nil {
		tr.Send(agent, Msg{Type: TypeError, Member: m.Member, Err: err.Error()})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dm := c.byID[m.Member]
	if dm == nil {
		dm = &dmember{
			EpochMember: cluster.NewEpochMember(m.Member, p, m.PeakW, m.EpochNs),
			agent:       agent,
			total:       m.TotalEpochs, state: statePending, pendingDone: m.DoneEpochs,
		}
		c.members = append(c.members, dm)
		c.byID[m.Member] = dm
		return
	}
	switch dm.state {
	case statePending:
		// Announce retry (lost welcome): refresh and wait for the
		// boundary.
		dm.agent, dm.pendingDone = agent, m.DoneEpochs
	case stateEvicted, stateAbandoned:
		dm.state = statePending
		dm.agent, dm.pendingDone = agent, m.DoneEpochs
	case stateLive:
		if agent != dm.agent {
			tr.Send(agent, Msg{Type: TypeError, Member: m.Member,
				Err: fmt.Sprintf("dist: member %q is live from agent %q", m.Member, dm.agent)})
			return
		}
		// The agent restarted under a live member: its in-flight epoch
		// is lost. Leave the barrier now (the floor returns to the pool
		// this boundary) and requeue the recovered journal state for
		// readmission at the next one.
		dm.state = statePending
		dm.pendingDone = m.DoneEpochs
		// An evicted member contributes no line to the epoch it left,
		// even if the dead incarnation's report already landed.
		dm.reported = false
		c.core.Forget(dm.ID)
		c.eventLocked(Event{Epoch: e, Type: "evict", Member: dm.ID, Agent: agent, Reason: "agent re-announced mid-epoch"})
	case stateDone, stateDetached:
		// Nothing to rejoin; ack so the agent stops retrying.
		tr.Send(agent, Msg{Type: TypeWelcome, Member: dm.ID, Epoch: e})
	}
}

func (c *Coordinator) handleReport(agent string, m Msg, e int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dm := c.byID[m.Member]
	if dm == nil || dm.state != stateLive || dm.reported || dm.agent != agent || m.Epoch != e {
		return // unknown, stale or duplicate: dropped idempotently
	}
	dm.reported = true
	dm.rep = cluster.MemberReport{
		Epoch: m.MemberEpoch, PowerW: m.PowerW, ThrottleFrac: m.ThrottleFrac,
		Instr: m.Instr, Done: m.Done,
	}
}

func (c *Coordinator) handleResult(agent string, m Msg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dm := c.byID[m.Member]
	if dm == nil || dm.result != nil || dm.agent != agent {
		return
	}
	dm.result = m.Result
}

func (c *Coordinator) handleDetach(agent string, m Msg, e int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dm := c.byID[m.Member]
	if dm == nil || dm.agent != agent {
		return
	}
	switch dm.state {
	case statePending, stateLive, stateEvicted:
		dm.state = stateDetached
		c.core.Forget(dm.ID)
		c.eventLocked(Event{Epoch: e, Type: "detach", Member: dm.ID, Agent: agent})
	}
}

// eventLocked appends a typed pressure event. Callers hold c.mu.
func (c *Coordinator) eventLocked(ev Event) {
	c.cfg.Metrics.events[ev.Type].Inc()
	c.events = append(c.events, ev)
	c.cond.Broadcast()
}

// Records snapshots the epoch records emitted so far.
func (c *Coordinator) Records() []cluster.EpochRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]cluster.EpochRecord(nil), c.records...)
}

// Events snapshots the typed pressure events emitted so far.
func (c *Coordinator) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Results returns every member's final aggregate in announce order.
// Members that never delivered a result (evicted for good, abandoned,
// result lost to the network) carry nil — the typed degradation the
// chaos tests pin down.
func (c *Coordinator) Results() []cluster.MemberResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cluster.MemberResult, len(c.members))
	for i, m := range c.members {
		out[i] = cluster.MemberResult{ID: m.ID, Result: m.result}
	}
	return out
}

// Finished reports whether Run has returned, and with what error.
func (c *Coordinator) Finished() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished, c.runErr
}

// Status snapshots the coordinator for the HTTP surface.
func (c *Coordinator) Status() CoordStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CoordStatus{Epoch: c.epoch, BudgetW: c.budgetW, Arbiter: c.cfg.Arbiter.Name(), Finished: c.finished}
	if c.runErr != nil {
		st.Error = c.runErr.Error()
	}
	for _, m := range c.members {
		st.Members = append(st.Members, MemberStatus{
			ID: m.ID, Agent: m.agent, State: m.state.String(),
			Epochs: m.Local, Total: m.total, GrantW: m.GrantW,
		})
	}
	return st
}

// NextRecord blocks until the epoch record at cursor exists and returns
// it; io.EOF once the run has finished with no record there. The
// serving layer's stream loop.
func (c *Coordinator) NextRecord(ctx context.Context, cursor int) (cluster.EpochRecord, error) {
	return httpjson.Follow(ctx, c.cond,
		func() []cluster.EpochRecord { return c.records },
		func() bool { return c.finished }, cursor)
}

// NextEvent blocks until the pressure event at cursor exists; io.EOF at
// end of run.
func (c *Coordinator) NextEvent(ctx context.Context, cursor int) (Event, error) {
	return httpjson.Follow(ctx, c.cond,
		func() []Event { return c.events },
		func() bool { return c.finished }, cursor)
}
