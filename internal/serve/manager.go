// Package serve multiplexes many concurrent capping sessions over one
// process — the multi-tenant layer of the fastcapd service. A Manager
// owns the full session lifecycle (create → scheduled stepping → done /
// failed / canceled → delete) and steps every live session on a bounded
// worker pool in fair round-robin order: each scheduling turn advances a
// session by exactly one control epoch and sends it to the back of the
// queue, so a 10 000-epoch tenant cannot starve a 10-epoch one no matter
// how few workers are configured.
//
// Sessions stay fully isolated — each owns its simulator, policy
// instance and RNGs — so every session's epoch stream and final result
// are bit-identical to running the same configuration alone through
// runner.Run, regardless of worker count or interleaving. That
// determinism is the service's correctness proof (and what the tests
// assert), exactly as runner's parallel experiment engine does.
//
// The HTTP front end over a Manager lives in NewHandler; cmd/fastcapd
// wires both to a listener.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/httpjson"
	"repro/internal/replay"
	"repro/internal/runner"
)

// State is a session's position in the lifecycle state machine:
//
//	queued ──▶ running ──▶ done
//	  ▲           │   └──▶ failed
//	  └───────────┘   └──▶ canceled
//
// queued→running happens when a pool worker picks the session up;
// running→queued when its epoch completes with more to go. The three
// terminal states are: done (all epochs executed), failed (an epoch
// error, recorded in Status.Error), canceled (closed by the client or a
// drain deadline). Terminal sessions keep their result and stream
// history until deleted.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further epochs will execute.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Typed service errors; the HTTP layer maps them to status codes and
// callers test with errors.Is. Configuration problems surface as
// runner.ErrInvalidConfig.
var (
	// ErrNotFound reports an unknown (or already deleted) session id.
	ErrNotFound = errors.New("serve: session not found")
	// ErrDraining rejects creates once Shutdown has begun.
	ErrDraining = errors.New("serve: manager is draining")
	// ErrTooManySessions rejects creates above Options.MaxSessions —
	// the admission-control side of backpressure.
	ErrTooManySessions = errors.New("serve: session limit reached")
	// ErrNotFinished guards results and recordings of live sessions.
	ErrNotFinished = errors.New("serve: session still running")
	// ErrFinished rejects operations that can no longer take effect —
	// retargeting the budget of a session already in a terminal state.
	ErrFinished = errors.New("serve: session already finished")
	// ErrNoRecording reports a session created without Record.
	ErrNoRecording = errors.New("serve: session has no recording")
)

// Options bounds the Manager.
type Options struct {
	// Workers is the scheduler pool size — how many sessions step an
	// epoch simultaneously. Defaults to GOMAXPROCS.
	Workers int
	// MaxSessions bounds resident sessions, live and finished-but-not-
	// deleted alike. Creates beyond it fail with ErrTooManySessions.
	// Defaults to 64.
	MaxSessions int
	// StreamHeartbeat is how long an NDJSON stream endpoint sits idle
	// (no new record at the cursor) before it emits a
	// {"heartbeat":true} keepalive line instead — detecting dead
	// consumers and keeping idle connections alive through proxies
	// without a server write timeout. Defaults to 15s; negative
	// disables heartbeats.
	StreamHeartbeat time.Duration
	// Metrics enables instrumentation (see NewMetrics). nil — the
	// default — disables it entirely: every update site degrades to a
	// nil-receiver no-op. Metrics never influence session output;
	// streams and results stay byte-identical either way.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	if o.StreamHeartbeat == 0 {
		o.StreamHeartbeat = 15 * time.Second
	}
	return o
}

// streamHeartbeat reports the configured keepalive interval (0 when
// disabled) for the HTTP layer's stream loops.
func (m *Manager) streamHeartbeat() time.Duration {
	if m.opt.StreamHeartbeat < 0 {
		return 0
	}
	return m.opt.StreamHeartbeat
}

// Status is the externally visible snapshot of one session.
type Status struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Mix    string `json:"mix"`
	Policy string `json:"policy"`
	Cores  int    `json:"cores"`
	// Epochs is the configured run length; EpochsDone how many have
	// completed (and are available to stream).
	Epochs     int `json:"epochs"`
	EpochsDone int `json:"epochs_done"`
	// BudgetFrac is the creation-time budget; live retargets apply from
	// the next epoch but are reported per epoch in the stream, not here.
	BudgetFrac float64 `json:"budget_frac"`
	PeakW      float64 `json:"peak_w"`
	Record     bool    `json:"record"`
	// Error carries the failure (or cancellation) cause for terminal
	// failed/canceled sessions.
	Error string `json:"error,omitempty"`
}

// session is the Manager-side state of one tenant run.
type session struct {
	id  string
	req Request
	cfg runner.Config

	ses    *runner.Session
	rec    *replay.Recorder // non-nil when capture was requested
	ctx    context.Context  // canceled by Close and drain deadlines
	cancel context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond           // new record / state change broadcasts
	recs   []runner.EpochRecord // completed epochs, in order
	state  State
	runErr error
	result *runner.Result
	closed bool // deleted: settle instead of stepping when next popped
	// deadlineCut marks that the drain deadline canceled this session
	// while it was live; if it then settles canceled (rather than
	// finishing its in-flight epoch cleanly), the drain was cut short.
	deadlineCut bool
}

// status snapshots the session. Callers must not hold s.mu.
func (s *session) status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	mixName := s.cfg.Mix.Name
	if mixName == "" && s.cfg.Sim.Machine != nil {
		// Placement-only sessions have no Table III mix; label with the
		// machine whose placement defines the workload.
		mixName = s.cfg.Sim.Machine.Name
	}
	st := Status{
		ID:         s.id,
		State:      s.state,
		Mix:        mixName,
		Policy:     s.req.Policy,
		Cores:      s.cfg.Sim.Cores,
		Epochs:     s.cfg.Epochs,
		EpochsDone: len(s.recs),
		BudgetFrac: s.cfg.BudgetFrac,
		PeakW:      s.ses.PeakPowerW(),
		Record:     s.rec != nil,
	}
	if s.runErr != nil {
		st.Error = s.runErr.Error()
	}
	return st
}

// finishLocked moves the session to a terminal state and finalizes the
// runner result (always available, as a prefix, even for failed and
// canceled runs). Callers hold s.mu.
func (s *session) finishLocked(st State, err error) {
	s.state = st
	s.runErr = err
	s.result = s.ses.Result()
	s.cond.Broadcast()
}

// runnable is one schedulable tenant of the manager pool: a session
// (one control epoch per turn) or a cluster group (one cluster epoch —
// every member's control epoch — per turn).
type runnable interface {
	turn(m *Manager)
}

// Manager owns the session table and the scheduler pool. The zero
// value is not usable; call NewManager.
//
// Lock ordering: m.mu before s.mu (or g.mu); neither is held across an
// epoch step, so session execution never blocks the API surface.
type Manager struct {
	opt Options

	mu       sync.Mutex
	cond     *sync.Cond // runnable-queue and drain-progress signal
	sessions map[string]*session
	clusters map[string]*group
	// memberTotal counts the sessions owned by resident cluster groups;
	// they share the MaxSessions admission budget with solo sessions.
	memberTotal int
	runq        []runnable // fair round-robin FIFO of runnable tenants
	nextID      uint64
	nextGID     uint64
	draining    bool
	stopped     bool
	// drainCut records that some session settled canceled because of
	// the drain deadline. Sticky — set at settle time so a client
	// deleting the session afterwards cannot make the drain look clean.
	drainCut bool

	// met holds the pre-resolved instrumentation handles (zero value:
	// disabled). A value copy, so the nil-Options case costs nothing.
	met Metrics

	wg sync.WaitGroup
}

// residentLoadLocked is the admission-control load: solo sessions plus
// every cluster member. Callers hold m.mu.
func (m *Manager) residentLoadLocked() int {
	return len(m.sessions) + m.memberTotal
}

// NewManager starts the scheduler pool and returns an empty manager.
// Call Shutdown to drain it.
func NewManager(o Options) *Manager {
	m := &Manager{
		opt:      o.withDefaults(),
		sessions: make(map[string]*session),
		clusters: make(map[string]*group),
	}
	if o.Metrics != nil {
		m.met = *o.Metrics
		o.Metrics.bind(m)
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < m.opt.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Create admits a new session: resolve and validate the request, build
// the simulator (and recorder, if asked), and enqueue the session for
// round-robin stepping. Returns the initial Status with the assigned
// id. Configuration problems wrap runner.ErrInvalidConfig; admission
// problems are ErrDraining / ErrTooManySessions.
func (m *Manager) Create(req Request) (Status, error) {
	req = req.withDefaults()
	cfg, err := req.Config()
	if err != nil {
		m.met.rejectInvalid.Inc()
		return Status{}, err
	}

	// Build outside the lock: simulator construction dominates create
	// latency and must not serialize against the whole service.
	var opts []runner.SessionOption
	var recd *replay.Recorder
	if req.Record {
		opts = append(opts, runner.WithPlatformWrap(func(p runner.Platform) runner.Platform {
			recd = replay.NewRecorder(p)
			return recd
		}))
	}
	ses, err := runner.NewSession(cfg, opts...)
	if err != nil {
		m.met.rejectInvalid.Inc()
		return Status{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &session{
		req:    req,
		cfg:    cfg,
		ses:    ses,
		rec:    recd,
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
	}
	s.cond = sync.NewCond(&s.mu)

	m.mu.Lock()
	if m.draining || m.stopped {
		m.mu.Unlock()
		cancel()
		m.met.rejectDraining.Inc()
		return Status{}, ErrDraining
	}
	if m.residentLoadLocked() >= m.opt.MaxSessions {
		m.mu.Unlock()
		cancel()
		m.met.rejectLimit.Inc()
		return Status{}, fmt.Errorf("%w (%d resident)", ErrTooManySessions, m.opt.MaxSessions)
	}
	m.nextID++
	s.id = "s" + strconv.FormatUint(m.nextID, 10)
	// Snapshot before workers can see the session (they need m.mu to
	// pop), so the create response always reports the queued state
	// rather than racing the first epoch.
	st := s.status()
	m.sessions[s.id] = s
	m.runq = append(m.runq, s)
	m.cond.Broadcast()
	m.mu.Unlock()
	m.met.sessionsCreated.Inc()
	return st, nil
}

func (m *Manager) get(id string) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s, nil
}

// Status returns a session's current snapshot.
func (m *Manager) Status(id string) (Status, error) {
	s, err := m.get(id)
	if err != nil {
		return Status{}, err
	}
	return s.status(), nil
}

// Count returns the number of resident sessions, cluster members
// included — the cheap liveness metric (unlike List, it takes no
// per-session locks).
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.residentLoadLocked()
}

// List snapshots every resident session, ordered by creation.
func (m *Manager) List() []Status {
	m.mu.Lock()
	all := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return numericID(all[i].id) < numericID(all[j].id) })
	out := make([]Status, len(all))
	for i, s := range all {
		out[i] = s.status()
	}
	return out
}

func numericID(id string) uint64 {
	n, _ := strconv.ParseUint(id[1:], 10, 64)
	return n
}

// SetBudget retargets a live session: from its next epoch the cap is
// f × peak. Delegates to Session.SetBudgetFrac, which is safe against
// a concurrent in-flight epoch and deterministic in when it applies.
// Terminal sessions have no next epoch, so the retarget is refused
// with ErrFinished rather than silently accepted.
func (m *Manager) SetBudget(id string, f float64) error {
	s, err := m.get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.Terminal() {
		return fmt.Errorf("%w: %q is %s", ErrFinished, id, s.state)
	}
	// A session stepping its final epoch is as good as terminal for a
	// retarget: the cap resolves at each epoch's start, so with no epoch
	// left after the in-flight one the new value could never apply.
	if s.state == StateRunning && len(s.recs) == s.cfg.Epochs-1 {
		return fmt.Errorf("%w: %q is in its final epoch", ErrFinished, id)
	}
	if err := s.ses.SetBudgetFrac(f); err != nil {
		return err
	}
	m.met.retargetSession.Inc()
	return nil
}

// Close deletes a session: live runs are canceled at their next epoch
// boundary, stream watchers are woken and end, and the id is removed
// immediately (subsequent lookups fail with ErrNotFound).
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(m.sessions, id)
	m.mu.Unlock()

	s.cancel()
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// Next blocks until the epoch record at index cursor is available and
// returns it. It returns io.EOF when the session has reached a
// terminal state (or was deleted) with no record at cursor — the end
// of the stream — and ctx's error if the watch is abandoned first.
// Records are stable once returned; a slow consumer can hold a cursor
// arbitrarily long without blocking the scheduler (backpressure costs
// memory already bounded by the session's configured epoch count, not
// stepping throughput).
func (m *Manager) Next(ctx context.Context, id string, cursor int) (runner.EpochRecord, error) {
	if cursor < 0 {
		return runner.EpochRecord{}, fmt.Errorf("%w: negative stream cursor %d", runner.ErrInvalidConfig, cursor)
	}
	s, err := m.get(id)
	if err != nil {
		return runner.EpochRecord{}, err
	}
	return httpjson.Follow(ctx, s.cond,
		func() []runner.EpochRecord { return s.recs },
		func() bool { return s.state.Terminal() || s.closed }, cursor)
}

// Result returns the finalized run aggregate of a terminal session
// (the completed prefix, for failed or canceled runs). Live sessions
// return ErrNotFinished.
func (m *Manager) Result(id string) (*runner.Result, error) {
	s, err := m.get(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.state.Terminal() {
		return nil, fmt.Errorf("%w: %q is %s", ErrNotFinished, id, s.state)
	}
	return s.result, nil
}

// WriteRecording serializes the session's captured trace (JSON, the
// replay.Recording format) to w. Only sessions created with Record
// have one, and only terminal sessions expose it — while stepping
// continues the trace is still growing.
func (m *Manager) WriteRecording(id string, w io.Writer) error {
	s, err := m.get(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.rec == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoRecording, id)
	}
	if !s.state.Terminal() {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q is %s", ErrNotFinished, id, s.state)
	}
	rec := s.rec.Recording()
	// Terminal ⇒ no more stepping mutates the recording; serialize
	// outside the lock so a slow writer cannot stall status calls.
	s.mu.Unlock()
	return rec.WriteJSON(w)
}

// Shutdown drains the manager: creates are refused from now on,
// resident sessions keep stepping until every one is terminal, then
// the worker pool exits. If ctx ends first, the remaining sessions are
// canceled — they stop at their next epoch boundary, keeping every
// stream consistent — and Shutdown still waits for the pool to settle.
// Returns ctx's error only when the deadline actually cut a live
// session short; a drain that finished naturally returns nil even if
// ctx happened to expire right as (or after) the last session ended.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()

	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		for _, s := range m.sessions {
			s.mu.Lock()
			if !s.state.Terminal() && !s.closed {
				s.deadlineCut = true
			}
			s.mu.Unlock()
			s.cancel()
		}
		for _, g := range m.clusters {
			g.mu.Lock()
			if !g.state.Terminal() && !g.closed {
				g.deadlineCut = true
			}
			g.mu.Unlock()
			g.cancel()
		}
		m.mu.Unlock()
	})
	defer stop()

	m.mu.Lock()
	for !m.allTerminalLocked() {
		m.cond.Wait()
	}
	m.stopped = true
	m.cond.Broadcast()
	// Judge the drain by its outcome, not by when the deadline fired: a
	// session the deadline canceled mid-final-epoch that still finished
	// cleanly is done, not cut. drainCut is recorded when such a session
	// settles canceled (see stepOnce), not scanned from the table here,
	// so a client deleting the canceled session before this point cannot
	// make the drain look clean.
	cut := m.drainCut
	m.mu.Unlock()

	m.wg.Wait()
	if cut {
		m.met.drainCut.Inc()
		return ctx.Err()
	}
	m.met.drainClean.Inc()
	return nil
}

// Draining reports whether Shutdown has begun (or completed): the
// manager refuses new work but may still be stepping resident sessions
// to completion. The readiness probe (GET /readyz) keys off this — a
// draining daemon is alive but should be rotated out of a balancer.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining || m.stopped
}

// allTerminalLocked reports whether every resident session and cluster
// group is done stepping. Callers hold m.mu (taken before any s.mu or
// g.mu, per the lock order).
func (m *Manager) allTerminalLocked() bool {
	for _, s := range m.sessions {
		s.mu.Lock()
		terminal := s.state.Terminal()
		s.mu.Unlock()
		if !terminal {
			return false
		}
	}
	for _, g := range m.clusters {
		g.mu.Lock()
		terminal := g.state.Terminal()
		g.mu.Unlock()
		if !terminal {
			return false
		}
	}
	return true
}

// worker is one scheduler pool goroutine: pop the head of the fair
// queue, advance that tenant one turn, requeue it at the tail.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		r := m.pop()
		if r == nil {
			return
		}
		r.turn(m)
	}
}

// pop blocks for the next runnable tenant; nil means the manager has
// stopped and the queue is drained.
func (m *Manager) pop() runnable {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if len(m.runq) > 0 {
			r := m.runq[0]
			m.runq[0] = nil // free the slot for GC as the window slides
			m.runq = m.runq[1:]
			return r
		}
		if m.stopped {
			return nil
		}
		m.cond.Wait()
	}
}

// turn implements runnable: a session's scheduling turn is one epoch.
func (s *session) turn(m *Manager) { m.stepOnce(s) }

// stepOnce is one scheduling turn: exactly one epoch of one session.
func (m *Manager) stepOnce(s *session) {
	s.mu.Lock()
	if s.state.Terminal() || s.closed {
		// Deleted (or force-canceled) while waiting in the queue: settle
		// without touching the runner and don't requeue.
		if !s.state.Terminal() {
			s.finishLocked(StateCanceled, context.Canceled)
		}
		s.mu.Unlock()
		m.notify(s.cutShort())
		return
	}
	s.state = StateRunning
	s.mu.Unlock()

	stepStart := time.Now()
	rec, err := s.ses.Step(s.ctx)
	stepDur := time.Since(stepStart)

	s.mu.Lock()
	switch {
	case err == nil:
		m.met.sessionEpochs.Inc()
		m.met.stepSeconds.Observe(stepDur.Seconds())
		s.recs = append(s.recs, rec)
		if len(s.recs) >= s.cfg.Epochs {
			// The runner would report ErrDone on the next Step; finishing
			// here saves every session one empty scheduling turn.
			s.finishLocked(StateDone, nil)
		} else {
			s.state = StateQueued
			s.cond.Broadcast()
		}
	case errors.Is(err, runner.ErrDone):
		s.finishLocked(StateDone, nil)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.finishLocked(StateCanceled, err)
	default:
		s.finishLocked(StateFailed, err)
	}
	terminal := s.state.Terminal()
	s.mu.Unlock()

	if terminal {
		m.notify(s.cutShort())
		return
	}
	m.requeue(s)
}

// cutShort reports whether the session's settled outcome means the
// drain deadline cut it short: it ended canceled by the deadline's
// cancel, not by a client delete (a deleted session was abandoned, so
// the rest of the drain still counts as natural). Callers must not
// hold s.mu.
func (s *session) cutShort() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == StateCanceled && s.deadlineCut && !s.closed
}

// requeue returns a still-live tenant to the tail of the fair queue.
func (m *Manager) requeue(r runnable) {
	m.mu.Lock()
	m.runq = append(m.runq, r)
	m.cond.Broadcast()
	m.mu.Unlock()
}

// notify wakes drain waiters after a session reaches a terminal state,
// recording first whether its outcome cut the drain short.
func (m *Manager) notify(cut bool) {
	m.mu.Lock()
	if cut {
		m.drainCut = true
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}
