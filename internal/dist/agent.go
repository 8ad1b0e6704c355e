package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/runner"
)

// MemberSpec declares one member an agent hosts: arbitration
// parameters plus an opaque session spec the BuildFunc turns into a
// live runner.Session (the serving layer's request JSON over HTTP, a
// test fixture handle under SimNet).
type MemberSpec struct {
	ID        string  `json:"id"`
	Weight    float64 `json:"weight,omitempty"`
	FloorFrac float64 `json:"floor_frac,omitempty"`
	// TargetBIPS is the member's optional throughput SLO in
	// giga-instructions per second; 0 means no contract.
	TargetBIPS float64         `json:"target_bips,omitempty"`
	Spec       json.RawMessage `json:"spec,omitempty"`
}

// MemberJournal is one member's durable state: its spec and every grant
// applied so far, in order. Replaying the grants through a freshly
// built session reproduces the member's state bit for bit — the
// simulator is deterministic, so the grant sequence IS the state.
type MemberJournal struct {
	MemberSpec
	Grants []float64 `json:"grants,omitempty"`
}

// AgentJournal is an agent's full durable state.
type AgentJournal struct {
	Agent   string          `json:"agent"`
	Members []MemberJournal `json:"members"`
}

// JournalStore persists an AgentJournal across agent restarts. Save is
// called after appending each grant and before stepping the session
// under it, so a crash at any point recovers to a state the coordinator
// can readmit: either the epoch never ran (journal without it) or it
// ran to completion (replay covers it).
type JournalStore interface {
	// Load returns the stored journal, ok=false when none exists yet.
	Load() (j AgentJournal, ok bool, err error)
	Save(j AgentJournal) error
}

// MemJournal is an in-memory JournalStore that survives simulated
// restarts: the chaos harness keeps the store, kills the Agent, and
// hands the same store to its replacement.
type MemJournal struct {
	mu sync.Mutex
	j  AgentJournal
	ok bool
}

// Load implements JournalStore.
func (s *MemJournal) Load() (AgentJournal, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cloneJournal(s.j), s.ok, nil
}

// Save implements JournalStore.
func (s *MemJournal) Save(j AgentJournal) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.j, s.ok = cloneJournal(j), true
	return nil
}

func cloneJournal(j AgentJournal) AgentJournal {
	out := AgentJournal{Agent: j.Agent, Members: make([]MemberJournal, len(j.Members))}
	for i, m := range j.Members {
		out.Members[i] = MemberJournal{
			MemberSpec: MemberSpec{
				ID: m.ID, Weight: m.Weight, FloorFrac: m.FloorFrac,
				TargetBIPS: m.TargetBIPS,
				Spec:       append(json.RawMessage(nil), m.Spec...),
			},
			Grants: append([]float64(nil), m.Grants...),
		}
	}
	return out
}

// BuildFunc turns a member's opaque spec into a fresh session at epoch
// zero. Called at agent construction and again during restart recovery.
type BuildFunc func(spec json.RawMessage) (*runner.Session, error)

// AgentConfig configures an Agent.
type AgentConfig struct {
	// Name identifies the agent to the coordinator. Required.
	Name string
	// Members are the sessions this agent hosts. Required unless the
	// journal already holds them (restart recovery).
	Members []MemberSpec
	// Build constructs sessions from member specs. Required.
	Build BuildFunc
	// Send delivers one message to the coordinator, best effort.
	// Required.
	Send func(Msg) error
	// Clock schedules announce retries and idle heartbeats. Required.
	Clock Clock
	// Journal persists grant history for restart recovery. Optional:
	// nil disables journaling (a restarted agent starts from scratch).
	Journal JournalStore
	// AnnounceBackoffNs is the first re-announce delay; it doubles per
	// attempt up to BackoffMaxNs. Default 2 s.
	AnnounceBackoffNs int64
	// BackoffMaxNs caps the announce backoff. Default 60 s.
	BackoffMaxNs int64
	// MaxAnnounce bounds announce attempts per admission; past it the
	// member fails locally rather than retrying forever. Default 10.
	MaxAnnounce int
	// HeartbeatNs sends coordinator-bound heartbeats at this period
	// while members wait on grants. 0 disables.
	HeartbeatNs int64
	// Metrics enables instrumentation (see NewMetrics). The zero value
	// disables it.
	Metrics Metrics
}

// amember state machine: announcing → active → done, with failed as
// the local sink for fatal errors (coordinator refusal, session error,
// announce retries exhausted).
type amemberState int

const (
	mAnnouncing amemberState = iota
	mActive
	mDone
	mFailed
)

func (s amemberState) String() string {
	switch s {
	case mAnnouncing:
		return "announcing"
	case mActive:
		return "active"
	case mDone:
		return "done"
	case mFailed:
		return "failed"
	}
	return "invalid"
}

// amember is the agent-side state of one hosted member.
type amember struct {
	spec     MemberSpec
	ses      *runner.Session
	peak     float64
	epochNs  float64 // announced so the coordinator can rate telemetry
	maxSteps []int
	total    int

	state amemberState
	local int // member-local epochs executed
	// lastEpoch is the highest cluster epoch whose grant we executed;
	// duplicate grants for it resend the cached report instead of
	// stepping twice.
	lastEpoch  int
	lastReport Msg
	result     *runner.Result
	failure    error

	// Announce retry state.
	attempts   int
	backoffNs  int64
	announceAt int64 // next re-announce time, 0 when none scheduled
}

// Agent hosts member sessions for a remote coordinator: it announces
// them, executes pushed grants (apply budget, step one epoch, report
// draw/slack/throttle), journals every grant for crash recovery, and
// re-announces with bounded exponential backoff after an eviction.
// Handle is the message entry point; it is safe for concurrent use.
type Agent struct {
	cfg AgentConfig

	mu          sync.Mutex
	members     []*amember
	byID        map[string]*amember
	journal     AgentJournal
	stopped     bool
	cancelTimer func()
	nextBeat    int64
}

// MemberState describes one hosted member in an agent snapshot.
type MemberState struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Epochs int    `json:"epochs"`
	Total  int    `json:"total"`
	Error  string `json:"error,omitempty"`
}

// AgentStatus is an agent's externally visible snapshot.
type AgentStatus struct {
	Agent   string        `json:"agent"`
	Members []MemberState `json:"members"`
}

// NewAgent builds an agent and recovers from its journal if the store
// holds one: sessions are rebuilt from their specs and the journaled
// grant sequence is replayed step by step, leaving each member in the
// exact state it reached before the crash. Start announces the members.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: agent without a name", runner.ErrInvalidConfig)
	}
	if cfg.Build == nil || cfg.Send == nil || cfg.Clock == nil {
		return nil, fmt.Errorf("%w: agent %q needs Build, Send and Clock", runner.ErrInvalidConfig, cfg.Name)
	}
	if cfg.AnnounceBackoffNs <= 0 {
		cfg.AnnounceBackoffNs = 2e9
	}
	if cfg.BackoffMaxNs < cfg.AnnounceBackoffNs {
		cfg.BackoffMaxNs = 60e9
	}
	if cfg.MaxAnnounce <= 0 {
		cfg.MaxAnnounce = 10
	}

	journaled := []MemberJournal(nil)
	if cfg.Journal != nil {
		j, ok, err := cfg.Journal.Load()
		if err != nil {
			return nil, fmt.Errorf("dist: agent %q journal: %w", cfg.Name, err)
		}
		if ok {
			journaled = j.Members
			cfg.Metrics.recoveries.Inc()
		}
	}
	if journaled == nil {
		if len(cfg.Members) == 0 {
			return nil, fmt.Errorf("%w: agent %q hosts no members", runner.ErrInvalidConfig, cfg.Name)
		}
		journaled = make([]MemberJournal, len(cfg.Members))
		for i, spec := range cfg.Members {
			journaled[i] = MemberJournal{MemberSpec: spec}
		}
	}

	a := &Agent{cfg: cfg, byID: make(map[string]*amember)}
	a.journal = AgentJournal{Agent: cfg.Name, Members: journaled}
	for i := range a.journal.Members {
		mj := &a.journal.Members[i]
		if _, err := (cluster.MemberParams{Weight: mj.Weight, FloorFrac: mj.FloorFrac, TargetBIPS: mj.TargetBIPS}).Normalize(mj.ID); err != nil {
			return nil, err
		}
		if mj.ID == "" || a.byID[mj.ID] != nil {
			return nil, fmt.Errorf("%w: agent %q member id %q empty or duplicate", runner.ErrInvalidConfig, cfg.Name, mj.ID)
		}
		ses, err := cfg.Build(mj.Spec)
		if err != nil {
			return nil, fmt.Errorf("dist: agent %q member %q: %w", cfg.Name, mj.ID, err)
		}
		m := &amember{
			spec: mj.MemberSpec, ses: ses,
			peak:     ses.PeakPowerW(),
			epochNs:  ses.EpochNs(),
			maxSteps: ses.MaxCoreSteps(),
			total:    ses.TotalEpochs(),
			state:    mAnnouncing,
			// Epoch 0's grant must not look like a duplicate.
			lastEpoch: -1,
		}
		if m.peak <= 0 {
			return nil, fmt.Errorf("%w: member %q platform peak %g W, want > 0", runner.ErrInvalidConfig, mj.ID, m.peak)
		}
		// Restart recovery: replay the journaled grant sequence. The
		// simulator is deterministic, so the rebuilt session lands on
		// the same state, watt for watt, as the one that crashed.
		for _, g := range mj.Grants {
			if err := a.replayGrant(m, g); err != nil {
				return nil, fmt.Errorf("dist: agent %q member %q replaying journal: %w", cfg.Name, mj.ID, err)
			}
			cfg.Metrics.journalReplays.Inc()
		}
		if m.local >= m.total {
			m.state = mDone
			m.result = ses.Result()
		}
		a.members = append(a.members, m)
		a.byID[m.spec.ID] = m
	}
	return a, nil
}

func (a *Agent) replayGrant(m *amember, g float64) error {
	if err := m.ses.SetBudgetFrac(g / m.peak); err != nil {
		return err
	}
	if _, err := m.ses.Step(context.Background()); err != nil {
		return err
	}
	m.local++
	return nil
}

// Start announces every member and arms the retry timer. Done members
// (fully covered by a recovered journal) announce too — with
// done_epochs at total, so the coordinator retires them — and forward
// their result.
func (a *Agent) Start() {
	a.mu.Lock()
	now := a.cfg.Clock.Now()
	for _, m := range a.members {
		switch m.state {
		case mAnnouncing:
			a.announceLocked(m, now)
		case mDone:
			a.announceDoneLocked(m)
		}
	}
	if a.cfg.HeartbeatNs > 0 {
		a.nextBeat = now + a.cfg.HeartbeatNs
	}
	a.armTimerLocked(now)
	a.mu.Unlock()
}

// Stop makes the agent inert: pending timers are cancelled and further
// messages are dropped. It does not notify the coordinator — that is
// what Detach is for; Stop models a crash or an orderly host shutdown.
func (a *Agent) Stop() {
	a.mu.Lock()
	a.stopped = true
	if a.cancelTimer != nil {
		a.cancelTimer()
		a.cancelTimer = nil
	}
	a.mu.Unlock()
}

// Detach withdraws every unfinished member from the cluster and stops
// the agent.
func (a *Agent) Detach() {
	a.mu.Lock()
	for _, m := range a.members {
		if m.state == mAnnouncing || m.state == mActive {
			a.send(Msg{Type: TypeDetach, Member: m.spec.ID})
		}
	}
	a.mu.Unlock()
	a.Stop()
}

func (a *Agent) send(m Msg) {
	m.Agent = a.cfg.Name
	// Best effort: a lost message is the network's business; the
	// coordinator's deadlines and our retries recover.
	_ = a.cfg.Send(m)
}

// announce sends the member's announce frame: its machine, arbitration
// parameters and the local epochs it already has behind it.
func (a *Agent) announce(m *amember) {
	a.send(Msg{
		Type: TypeAnnounce, Member: m.spec.ID,
		PeakW: m.peak, Weight: m.spec.Weight, FloorFrac: m.spec.FloorFrac,
		TargetBIPS: m.spec.TargetBIPS, EpochNs: m.epochNs,
		TotalEpochs: m.total, DoneEpochs: m.local,
	})
}

func (a *Agent) announceLocked(m *amember, now int64) {
	a.announce(m)
	m.attempts++
	if m.backoffNs <= 0 {
		m.backoffNs = a.cfg.AnnounceBackoffNs
	}
	if m.attempts >= a.cfg.MaxAnnounce {
		m.state = mFailed
		m.failure = fmt.Errorf("dist: member %q unadmitted after %d announces", m.spec.ID, m.attempts)
		m.announceAt = 0
		return
	}
	m.announceAt = now + m.backoffNs
	m.backoffNs *= 2
	if m.backoffNs > a.cfg.BackoffMaxNs {
		m.backoffNs = a.cfg.BackoffMaxNs
	}
}

func (a *Agent) announceDoneLocked(m *amember) {
	a.announce(m) // a done member's local count is its total
	a.send(Msg{Type: TypeResult, Member: m.spec.ID, Result: m.result})
}

// armTimerLocked schedules the next timer callback for the earliest of
// the pending announce retries and the heartbeat.
func (a *Agent) armTimerLocked(now int64) {
	if a.cancelTimer != nil {
		a.cancelTimer()
		a.cancelTimer = nil
	}
	if a.stopped {
		return
	}
	var at int64
	for _, m := range a.members {
		if m.state == mAnnouncing && m.announceAt > 0 && (at == 0 || m.announceAt < at) {
			at = m.announceAt
		}
	}
	if a.nextBeat > 0 && a.anyWaiting() && (at == 0 || a.nextBeat < at) {
		at = a.nextBeat
	}
	if at == 0 {
		return
	}
	d := at - now
	if d < 0 {
		d = 0
	}
	a.cancelTimer = a.cfg.Clock.After(d, a.onTimer)
}

func (a *Agent) anyWaiting() bool {
	for _, m := range a.members {
		if m.state == mAnnouncing || m.state == mActive {
			return true
		}
	}
	return false
}

func (a *Agent) onTimer() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped {
		return
	}
	now := a.cfg.Clock.Now()
	for _, m := range a.members {
		if m.state == mAnnouncing && m.announceAt > 0 && m.announceAt <= now {
			a.announceLocked(m, now)
		}
	}
	if a.nextBeat > 0 && now >= a.nextBeat {
		if a.anyWaiting() {
			a.send(Msg{Type: TypeHeartbeat})
		}
		a.nextBeat = now + a.cfg.HeartbeatNs
	}
	a.armTimerLocked(now)
}

// Handle processes one message from the coordinator (welcome, grant,
// evict, error; anything else is dropped). The transport calls it for
// every delivery; it never blocks on the network and never panics.
func (a *Agent) Handle(m Msg) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped {
		return
	}
	dm := a.byID[m.Member]
	switch m.Type {
	case TypeWelcome:
		if dm != nil && dm.state == mAnnouncing {
			dm.state = mActive
			dm.attempts, dm.backoffNs, dm.announceAt = 0, 0, 0
		}
	case TypeGrant:
		if dm != nil {
			a.handleGrantLocked(dm, m)
		}
	case TypeEvict:
		// Stale evictions (for epochs we have since executed a grant
		// beyond) are duplicates from the fault fabric; ignore.
		if dm != nil && dm.state == mActive && m.Epoch >= dm.lastEpoch {
			dm.state = mAnnouncing
			dm.attempts, dm.backoffNs = 0, 0
			a.announceLocked(dm, a.cfg.Clock.Now())
		}
	case TypeError:
		if dm != nil && dm.state != mDone {
			dm.state = mFailed
			dm.failure = fmt.Errorf("dist: coordinator refused member %q: %s", m.Member, m.Err)
			dm.announceAt = 0
		}
	}
	a.armTimerLocked(a.cfg.Clock.Now())
}

func (a *Agent) handleGrantLocked(m *amember, g Msg) {
	switch m.state {
	case mFailed:
		return
	case mDone:
		// The coordinator missed our result; resend it.
		a.send(Msg{Type: TypeResult, Member: m.spec.ID, Result: m.result})
		return
	}
	if g.Epoch < m.lastEpoch {
		return // stale duplicate from the fault fabric
	}
	if g.Epoch == m.lastEpoch {
		// Duplicate of the grant we just executed (or a barrier retry
		// after our report was lost): the epoch already ran, resend the
		// cached report rather than stepping twice.
		a.send(m.lastReport)
		return
	}
	// A grant is an implicit welcome: if the welcome was lost, being
	// granted proves admission.
	m.state = mActive
	m.attempts, m.backoffNs, m.announceAt = 0, 0, 0
	m.lastEpoch = g.Epoch

	// Journal the grant BEFORE stepping under it: recovery replays the
	// journal, so an epoch is either absent (crashed before the step —
	// the coordinator evicts and readmits us one epoch back) or fully
	// covered (crashed after — we rejoin exactly where we left off).
	mj := &a.journal.Members[a.indexOf(m)]
	mj.Grants = append(mj.Grants, g.GrantW)
	if a.cfg.Journal != nil {
		if err := a.cfg.Journal.Save(a.journal); err != nil {
			m.state = mFailed
			m.failure = fmt.Errorf("dist: member %q journal: %w", m.spec.ID, err)
			a.send(Msg{Type: TypeDetach, Member: m.spec.ID})
			return
		}
	}

	if err := m.ses.SetBudgetFrac(g.GrantW / m.peak); err != nil {
		a.failMemberLocked(m, err)
		return
	}
	rec, err := m.ses.Step(context.Background())
	if err != nil {
		if errors.Is(err, runner.ErrDone) {
			// Defensive: the session finalized behind our back.
			m.state = mDone
			m.result = m.ses.Result()
			a.send(Msg{Type: TypeResult, Member: m.spec.ID, Result: m.result})
			return
		}
		a.failMemberLocked(m, err)
		return
	}
	m.local++
	done := m.local >= m.total

	// The report is the one the in-process coordinator folds, condensed
	// by the same function, framed for the wire.
	rep := cluster.ReportOf(rec, m.maxSteps, done)
	m.lastReport = Msg{
		Type: TypeReport, Member: m.spec.ID, Epoch: g.Epoch,
		MemberEpoch: rep.Epoch, PowerW: rep.PowerW,
		ThrottleFrac: rep.ThrottleFrac, Instr: rep.Instr, Done: rep.Done,
	}
	a.send(m.lastReport)
	if done {
		m.state = mDone
		m.result = m.ses.Result()
		a.send(Msg{Type: TypeResult, Member: m.spec.ID, Result: m.result})
	}
}

func (a *Agent) failMemberLocked(m *amember, err error) {
	m.state = mFailed
	m.failure = fmt.Errorf("dist: member %q: %w", m.spec.ID, err)
	m.announceAt = 0
	// Withdraw so the coordinator stops granting a dead session.
	a.send(Msg{Type: TypeDetach, Member: m.spec.ID})
}

func (a *Agent) indexOf(m *amember) int {
	for i := range a.members {
		if a.members[i] == m {
			return i
		}
	}
	panic("dist: member not registered") // unreachable: members never shrink
}

// Done reports whether every member reached a terminal state (done or
// failed).
func (a *Agent) Done() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range a.members {
		if m.state != mDone && m.state != mFailed {
			return false
		}
	}
	return true
}

// Status snapshots the agent for the HTTP surface.
func (a *Agent) Status() AgentStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AgentStatus{Agent: a.cfg.Name}
	for _, m := range a.members {
		ms := MemberState{ID: m.spec.ID, State: m.state.String(), Epochs: m.local, Total: m.total}
		if m.failure != nil {
			ms.Error = m.failure.Error()
		}
		st.Members = append(st.Members, ms)
	}
	return st
}
