package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/httpjson"
	"repro/internal/runner"
)

// ClusterRequest describes one cluster group to create — the JSON body
// of POST /clusters. A group owns its member sessions: they are created
// with it, stepped in epoch lockstep by the cluster coordinator, and
// count against the manager's MaxSessions admission budget.
//
// Exactly one of BudgetW and BudgetFrac sets the global budget.
type ClusterRequest struct {
	// BudgetW is the global power budget in watts, arbitrated across
	// members each epoch.
	BudgetW float64 `json:"budget_w,omitempty"`
	// BudgetFrac sets the budget as a fraction in (0, 1] of the sum of
	// member machine peaks — convenient when the caller does not know
	// the peaks up front.
	BudgetFrac float64 `json:"budget_frac,omitempty"`
	// Arbiter picks the arbitration policy: "static" (proportional to
	// peak, the default), "slack" (slack-reclaiming with hysteresis),
	// "priority" (proportional to weight × peak), "slo"
	// (throughput-contract driven; see ClusterMemberRequest.TargetBIPS)
	// or "predictive" (forecast-driven pre-allocation). The
	// authoritative list is cluster.ArbiterNames.
	Arbiter string `json:"arbiter,omitempty"`
	// Members are the group's tenants, in arbitration order.
	Members []ClusterMemberRequest `json:"members"`
}

// ClusterMemberRequest is one member of a cluster-create (or a member
// attach, POST /clusters/{id}/members).
type ClusterMemberRequest struct {
	// ID names the member in grant streams. Defaults to "m1", "m2", …
	// by position; must be unique within the group.
	ID string `json:"id,omitempty"`
	// Weight is the priority-weighted arbiter's share multiplier.
	// Defaults to 1.
	Weight float64 `json:"weight,omitempty"`
	// FloorFrac is the member's guaranteed minimum grant as a fraction
	// of its machine peak. Defaults to cluster.DefaultFloorFrac.
	FloorFrac float64 `json:"floor_frac,omitempty"`
	// TargetBIPS declares an optional throughput SLO in
	// giga-instructions per second. Contracted members report bips and
	// slo_violated in their grant lines, surface slo_violated/
	// slo_restored events in the stream, and steer the "slo" arbiter.
	// 0 (the default) means no contract.
	TargetBIPS float64 `json:"target_bips,omitempty"`
	// Session configures the member's capping run — the same payload as
	// POST /sessions, except Record (members are not individually
	// addressable, so a recording would be unreachable).
	Session Request `json:"session"`
}

// resolvedMember is one validated member: its session configuration
// plus arbitration parameters, ready to build.
type resolvedMember struct {
	id     string
	weight float64
	floor  float64
	target float64
	cfg    runner.Config
}

// resolveMember validates one member request. idx positions the member
// for the default id; seen carries already-claimed ids.
func resolveMember(req ClusterMemberRequest, idx int, seen map[string]bool) (resolvedMember, error) {
	rm := resolvedMember{id: req.ID}
	if rm.id == "" {
		rm.id = "m" + strconv.Itoa(idx+1)
	}
	if seen[rm.id] {
		return rm, fmt.Errorf("%w: duplicate cluster member id %q", runner.ErrInvalidConfig, rm.id)
	}
	// Parameter normalization and bounds live in the cluster layer — one
	// source of truth, so a rejected request here is exactly what the
	// Coordinator would have refused.
	p, err := cluster.MemberParams{Weight: req.Weight, FloorFrac: req.FloorFrac, TargetBIPS: req.TargetBIPS}.Normalize(rm.id)
	if err != nil {
		return rm, err
	}
	rm.weight, rm.floor, rm.target = p.Weight, p.FloorFrac, p.TargetBIPS
	if req.Session.Record {
		return rm, fmt.Errorf("%w: member %q requests a recording; cluster members cannot record", runner.ErrInvalidConfig, rm.id)
	}
	cfg, err := req.Session.Config()
	if err != nil {
		return rm, fmt.Errorf("member %q: %w", rm.id, err)
	}
	rm.cfg = cfg
	seen[rm.id] = true
	return rm, nil
}

// resolvedCluster is a fully validated cluster request, before any
// simulator is built.
type resolvedCluster struct {
	budgetW    float64 // 0 when budgetFrac drives
	budgetFrac float64
	arb        cluster.Arbiter
	members    []resolvedMember
}

// resolve validates the whole request against the serving bounds. It is
// pure — no simulator construction — so the fuzzer drives it directly:
// every malformed request must yield a typed error (runner.
// ErrInvalidConfig or ErrTooManySessions), never a panic.
func (r ClusterRequest) resolve(maxMembers int) (resolvedCluster, error) {
	var rc resolvedCluster
	switch {
	case r.BudgetW != 0 && r.BudgetFrac != 0:
		return rc, fmt.Errorf("%w: set budget_w or budget_frac, not both", runner.ErrInvalidConfig)
	case r.BudgetW != 0:
		// The watt bounds live in the cluster layer (one source of truth,
		// like MemberParams); budget_frac is a serve-only convenience and
		// validated here.
		if err := cluster.ValidBudgetW(r.BudgetW); err != nil {
			return rc, err
		}
		rc.budgetW = r.BudgetW
	case r.BudgetFrac != 0:
		if math.IsNaN(r.BudgetFrac) || r.BudgetFrac < 0 || r.BudgetFrac > 1 {
			return rc, fmt.Errorf("%w: global budget fraction %g outside (0, 1]", runner.ErrInvalidConfig, r.BudgetFrac)
		}
		rc.budgetFrac = r.BudgetFrac
	default:
		return rc, fmt.Errorf("%w: cluster needs a global budget (budget_w or budget_frac)", runner.ErrInvalidConfig)
	}
	name := r.Arbiter
	if name == "" {
		name = "static"
	}
	arb, ok := cluster.ArbiterByName(name)
	if !ok {
		return rc, fmt.Errorf("%w: unknown arbiter %q (want %s)", runner.ErrInvalidConfig, name, strings.Join(cluster.ArbiterNames(), ", "))
	}
	rc.arb = arb
	if len(r.Members) == 0 {
		return rc, fmt.Errorf("%w: cluster has no members", runner.ErrInvalidConfig)
	}
	if len(r.Members) > maxMembers {
		return rc, fmt.Errorf("%w: %d cluster members above the %d-session limit", ErrTooManySessions, len(r.Members), maxMembers)
	}
	seen := make(map[string]bool, len(r.Members))
	for i, mr := range r.Members {
		rm, err := resolveMember(mr, i, seen)
		if err != nil {
			return rc, err
		}
		rc.members = append(rc.members, rm)
	}
	return rc, nil
}

// ClusterMemberStatus is the static description of one group member.
type ClusterMemberStatus struct {
	ID        string  `json:"id"`
	Mix       string  `json:"mix"`
	Policy    string  `json:"policy"`
	Cores     int     `json:"cores"`
	Epochs    int     `json:"epochs"`
	Weight    float64 `json:"weight"`
	FloorFrac float64 `json:"floor_frac"`
	// TargetBIPS is the member's declared throughput SLO (0 = none).
	TargetBIPS float64 `json:"target_bips,omitempty"`
	PeakW      float64 `json:"peak_w"`
}

// ClusterStatus is the externally visible snapshot of one group.
type ClusterStatus struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	Arbiter string `json:"arbiter"`
	// BudgetW is the global budget currently in force (live retargets
	// included).
	BudgetW float64 `json:"budget_w"`
	// Epochs is the cluster horizon (the latest-finishing live member's
	// run length; attaches extend it, detaches and early finishes
	// shrink it); EpochsDone how many cluster epochs completed (and
	// stream).
	Epochs     int                   `json:"epochs"`
	EpochsDone int                   `json:"epochs_done"`
	Members    []ClusterMemberStatus `json:"members"`
	Error      string                `json:"error,omitempty"`
}

// group is the Manager-side state of one cluster-group tenant.
type group struct {
	id      string
	coord   *cluster.Coordinator
	arbName string

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	info    []ClusterMemberStatus // static member facts, attach appends
	recs    []cluster.EpochRecord // completed cluster epochs, in order
	state   State
	runErr  error
	results []cluster.MemberResult // set at terminal settle
	closed  bool
	// deadlineCut mirrors session.deadlineCut: the drain deadline
	// canceled this group while live.
	deadlineCut bool
}

// status snapshots the group. Callers must not hold g.mu.
func (g *group) status() ClusterStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.statusLocked()
}

// statusLocked is the snapshot body; callers hold g.mu.
func (g *group) statusLocked() ClusterStatus {
	st := ClusterStatus{
		ID:         g.id,
		State:      g.state,
		Arbiter:    g.arbName,
		BudgetW:    g.coord.BudgetW(),
		Epochs:     g.coord.TotalEpochs(),
		EpochsDone: len(g.recs),
		Members:    append([]ClusterMemberStatus(nil), g.info...),
	}
	if g.runErr != nil {
		st.Error = g.runErr.Error()
	}
	return st
}

// finishLocked moves the group to a terminal state and finalizes every
// member's result. Callers hold g.mu.
func (g *group) finishLocked(st State, err error) {
	g.state = st
	g.runErr = err
	g.results = g.coord.Results()
	g.cond.Broadcast()
}

// cutShort mirrors session.cutShort for the drain-outcome accounting.
func (g *group) cutShort() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state == StateCanceled && g.deadlineCut && !g.closed
}

// turn implements runnable: a group's scheduling turn is one cluster
// epoch — every live member advances one control epoch under the
// grants the arbiter just computed. A group therefore consumes member-
// count times the pool time of a solo session per turn, which is
// exactly its fair share: it is member-count tenants.
func (g *group) turn(m *Manager) { m.stepGroup(g) }

func (m *Manager) stepGroup(g *group) {
	g.mu.Lock()
	if g.state.Terminal() || g.closed {
		if !g.state.Terminal() {
			g.finishLocked(StateCanceled, context.Canceled)
		}
		g.mu.Unlock()
		m.notify(g.cutShort())
		return
	}
	g.state = StateRunning
	g.mu.Unlock()

	rec, err := g.coord.Step(g.ctx)

	g.mu.Lock()
	switch {
	case err == nil:
		m.met.clusterEpochs.Inc()
		g.recs = append(g.recs, rec)
		g.state = StateQueued
		g.cond.Broadcast()
	case errors.Is(err, cluster.ErrDone):
		g.finishLocked(StateDone, nil)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		g.finishLocked(StateCanceled, err)
	default:
		g.finishLocked(StateFailed, err)
	}
	terminal := g.state.Terminal()
	g.mu.Unlock()

	if terminal {
		m.notify(g.cutShort())
		return
	}
	m.requeue(g)
}

// memberStatus builds the static member facts from a resolved member
// and its built session.
func memberStatus(rm resolvedMember, ses *runner.Session) ClusterMemberStatus {
	mixName := rm.cfg.Mix.Name
	if mixName == "" && rm.cfg.Sim.Machine != nil {
		mixName = rm.cfg.Sim.Machine.Name
	}
	polName := "baseline"
	if rm.cfg.Policy != nil {
		polName = rm.cfg.Policy.Name()
	}
	return ClusterMemberStatus{
		ID:         rm.id,
		Mix:        mixName,
		Policy:     polName,
		Cores:      rm.cfg.Sim.Cores,
		Epochs:     rm.cfg.Epochs,
		Weight:     rm.weight,
		FloorFrac:  rm.floor,
		TargetBIPS: rm.target,
		PeakW:      ses.PeakPowerW(),
	}
}

// CreateCluster admits a cluster group: resolve and validate the
// request, build every member's simulator, assemble the coordinator,
// and enqueue the group for stepping. Members count against
// MaxSessions. Configuration problems wrap runner.ErrInvalidConfig;
// admission problems are ErrDraining / ErrTooManySessions.
func (m *Manager) CreateCluster(req ClusterRequest) (ClusterStatus, error) {
	rc, err := req.resolve(m.opt.MaxSessions)
	if err != nil {
		if errors.Is(err, ErrTooManySessions) {
			m.met.rejectLimit.Inc()
		} else {
			m.met.rejectInvalid.Inc()
		}
		return ClusterStatus{}, err
	}

	// Build outside the lock, like session creates.
	members := make([]cluster.Member, len(rc.members))
	info := make([]ClusterMemberStatus, len(rc.members))
	peaks := 0.0
	for i, rm := range rc.members {
		ses, err := runner.NewSession(rm.cfg)
		if err != nil {
			m.met.rejectInvalid.Inc()
			return ClusterStatus{}, fmt.Errorf("member %q: %w", rm.id, err)
		}
		peaks += ses.PeakPowerW()
		members[i] = cluster.Member{ID: rm.id, Weight: rm.weight, FloorFrac: rm.floor, TargetBIPS: rm.target, Session: ses}
		info[i] = memberStatus(rm, ses)
	}
	budget := rc.budgetW
	if rc.budgetFrac > 0 {
		budget = rc.budgetFrac * peaks
	}
	// Members step serially within the group's turn: each turn already
	// occupies one manager-pool worker, so an inner pool would multiply
	// concurrent simulation up to Workers² and break the -workers
	// compute bound the daemon promises.
	coord, err := cluster.New(cluster.Config{
		BudgetW: budget,
		Arbiter: rc.arb,
		Workers: 1,
	}, members)
	if err != nil {
		m.met.rejectInvalid.Inc()
		return ClusterStatus{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &group{
		coord:   coord,
		arbName: rc.arb.Name(),
		ctx:     ctx,
		cancel:  cancel,
		info:    info,
		state:   StateQueued,
	}
	g.cond = sync.NewCond(&g.mu)

	m.mu.Lock()
	if m.draining || m.stopped {
		m.mu.Unlock()
		cancel()
		m.met.rejectDraining.Inc()
		return ClusterStatus{}, ErrDraining
	}
	if m.residentLoadLocked()+len(members) > m.opt.MaxSessions {
		m.mu.Unlock()
		cancel()
		m.met.rejectLimit.Inc()
		return ClusterStatus{}, fmt.Errorf("%w (%d members onto %d resident)", ErrTooManySessions, len(members), m.residentLoadLocked())
	}
	m.nextGID++
	g.id = "c" + strconv.FormatUint(m.nextGID, 10)
	// The metric label is the group id, assigned just now — installed
	// before the group is enqueued, so no Step can precede it.
	g.coord.SetMetrics(m.met.clusterMetrics(g.id))
	m.memberTotal += len(members)
	st := g.status()
	m.clusters[g.id] = g
	m.runq = append(m.runq, g)
	m.cond.Broadcast()
	m.mu.Unlock()
	m.met.clustersCreated.Inc()
	return st, nil
}

func (m *Manager) getGroup(id string) (*group, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.clusters[id]
	if !ok {
		return nil, fmt.Errorf("%w: cluster %q", ErrNotFound, id)
	}
	return g, nil
}

// ClusterStatus returns a group's current snapshot.
func (m *Manager) ClusterStatus(id string) (ClusterStatus, error) {
	g, err := m.getGroup(id)
	if err != nil {
		return ClusterStatus{}, err
	}
	return g.status(), nil
}

// ListClusters snapshots every resident group, ordered by creation.
func (m *Manager) ListClusters() []ClusterStatus {
	m.mu.Lock()
	all := make([]*group, 0, len(m.clusters))
	for _, g := range m.clusters {
		all = append(all, g)
	}
	m.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return numericID(all[i].id) < numericID(all[j].id) })
	out := make([]ClusterStatus, len(all))
	for i, g := range all {
		out[i] = g.status()
	}
	return out
}

// SetClusterBudget retargets a group's global budget: from the next
// cluster epoch the arbiter partitions w watts. Terminal groups (and
// groups stepping their final epoch, where no boundary remains for the
// change to land on) are refused with ErrFinished; invalid watts wrap
// runner.ErrInvalidConfig.
func (m *Manager) SetClusterBudget(id string, w float64) error {
	g, err := m.getGroup(id)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.state.Terminal() {
		return fmt.Errorf("%w: cluster %q is %s", ErrFinished, id, g.state)
	}
	if g.state == StateRunning && len(g.recs) == g.coord.TotalEpochs()-1 {
		return fmt.Errorf("%w: cluster %q is in its final epoch", ErrFinished, id)
	}
	// A group that has stepped its whole horizon but not yet taken the
	// settling turn that latches ErrDone is as good as terminal: no
	// boundary remains for the new budget (a pending attach would have
	// already extended TotalEpochs, so this cannot refuse a retarget
	// that still has an epoch to land on).
	if n := len(g.recs); n > 0 && n >= g.coord.TotalEpochs() {
		return fmt.Errorf("%w: cluster %q has no epochs remaining", ErrFinished, id)
	}
	if err := g.coord.SetBudgetW(w); err != nil {
		return err
	}
	m.met.retargetCluster.Inc()
	return nil
}

// AttachMember adds a member to a live group at its next epoch
// boundary. The member counts against MaxSessions; attaching to a
// terminal group fails with ErrFinished; duplicate ids and other
// configuration problems wrap runner.ErrInvalidConfig.
func (m *Manager) AttachMember(id string, req ClusterMemberRequest) (ClusterStatus, error) {
	g, err := m.getGroup(id)
	if err != nil {
		return ClusterStatus{}, err
	}
	// Position-derived default ids would collide after detaches; require
	// an explicit id on attach instead.
	if req.ID == "" {
		m.met.rejectInvalid.Inc()
		return ClusterStatus{}, fmt.Errorf("%w: attach needs an explicit member id", runner.ErrInvalidConfig)
	}
	rm, err := resolveMember(req, 0, map[string]bool{})
	if err != nil {
		m.met.rejectInvalid.Inc()
		return ClusterStatus{}, err
	}
	ses, err := runner.NewSession(rm.cfg)
	if err != nil {
		m.met.rejectInvalid.Inc()
		return ClusterStatus{}, fmt.Errorf("member %q: %w", rm.id, err)
	}

	// Reserve the admission slot first (m.mu strictly before g.mu, per
	// the lock order); release it if the group-side attach falls through.
	m.mu.Lock()
	if m.draining || m.stopped {
		m.mu.Unlock()
		m.met.rejectDraining.Inc()
		return ClusterStatus{}, ErrDraining
	}
	if m.residentLoadLocked() >= m.opt.MaxSessions {
		m.mu.Unlock()
		m.met.rejectLimit.Inc()
		return ClusterStatus{}, fmt.Errorf("%w (%d resident)", ErrTooManySessions, m.opt.MaxSessions)
	}
	m.memberTotal++
	m.mu.Unlock()
	unreserve := func() {
		m.mu.Lock()
		m.memberTotal--
		m.mu.Unlock()
	}

	g.mu.Lock()
	if g.state.Terminal() || g.closed {
		st := g.state
		g.mu.Unlock()
		unreserve()
		return ClusterStatus{}, fmt.Errorf("%w: cluster %q is %s", ErrFinished, id, st)
	}
	if err := g.coord.Attach(cluster.Member{ID: rm.id, Weight: rm.weight, FloorFrac: rm.floor, TargetBIPS: rm.target, Session: ses}); err != nil {
		g.mu.Unlock()
		unreserve()
		if errors.Is(err, cluster.ErrDone) {
			// The coordinator finalized between our state check and the
			// attach (its done latch is the authority): same refusal as a
			// terminal group.
			return ClusterStatus{}, fmt.Errorf("%w: cluster %q is finished", ErrFinished, id)
		}
		return ClusterStatus{}, err
	}
	g.info = append(g.info, memberStatus(rm, ses))
	st := g.statusLocked()
	g.mu.Unlock()
	m.met.memberAttach.Inc()
	return st, nil
}

// DetachMember removes a member from a live group at its next epoch
// boundary; its prefix result stays in the group's final results and
// its slot is not returned to the admission budget until the group is
// deleted. Detaching a member whose attach had not reached a boundary
// yet revokes the attach entirely: it leaves the status listing and
// frees its slot, matching the coordinator (which will never run or
// report it). Unknown members map to ErrNotFound.
func (m *Manager) DetachMember(id, memberID string) error {
	g, err := m.getGroup(id)
	if err != nil {
		return err
	}
	g.mu.Lock()
	if g.state.Terminal() || g.closed {
		st := g.state
		g.mu.Unlock()
		return fmt.Errorf("%w: cluster %q is %s", ErrFinished, id, st)
	}
	pending, err := g.coord.Detach(memberID)
	if err != nil {
		g.mu.Unlock()
		if errors.Is(err, cluster.ErrUnknownMember) {
			return fmt.Errorf("%w: cluster %q member %q", ErrNotFound, id, memberID)
		}
		if errors.Is(err, cluster.ErrDone) {
			return fmt.Errorf("%w: cluster %q is finished", ErrFinished, id)
		}
		return err
	}
	if pending {
		for i, info := range g.info {
			if info.ID == memberID {
				g.info = append(g.info[:i], g.info[i+1:]...)
				break
			}
		}
	}
	g.mu.Unlock()
	if pending {
		// The member never ran; return its admission slot (m.mu strictly
		// after releasing g.mu, per the lock order).
		m.mu.Lock()
		m.memberTotal--
		m.mu.Unlock()
	}
	m.met.memberDetach.Inc()
	return nil
}

// ClusterNext blocks until the cluster epoch record at index cursor is
// available and returns it, io.EOF at the end of a terminal (or
// deleted) group's stream — the same contract as Next for sessions.
func (m *Manager) ClusterNext(ctx context.Context, id string, cursor int) (cluster.EpochRecord, error) {
	if cursor < 0 {
		return cluster.EpochRecord{}, fmt.Errorf("%w: negative stream cursor %d", runner.ErrInvalidConfig, cursor)
	}
	g, err := m.getGroup(id)
	if err != nil {
		return cluster.EpochRecord{}, err
	}
	return httpjson.Follow(ctx, g.cond,
		func() []cluster.EpochRecord { return g.recs },
		func() bool { return g.state.Terminal() || g.closed }, cursor)
}

// ClusterResult returns the finalized per-member aggregates of a
// terminal group (prefix results for canceled runs and detached
// members). Live groups return ErrNotFinished.
func (m *Manager) ClusterResult(id string) ([]cluster.MemberResult, error) {
	g, err := m.getGroup(id)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.state.Terminal() {
		return nil, fmt.Errorf("%w: cluster %q is %s", ErrNotFinished, id, g.state)
	}
	return g.results, nil
}

// CloseCluster deletes a group: a live run is canceled at its next
// member-epoch boundary, stream watchers end, member slots return to
// the admission budget, and the id is removed immediately.
func (m *Manager) CloseCluster(id string) error {
	m.mu.Lock()
	g, ok := m.clusters[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: cluster %q", ErrNotFound, id)
	}
	delete(m.clusters, id)
	// closed is set in the same critical section that settles the member
	// accounting, so a racing AttachMember either lands before (and is
	// counted here) or observes closed and releases its reservation.
	g.mu.Lock()
	g.closed = true
	m.memberTotal -= len(g.info)
	g.cond.Broadcast()
	g.mu.Unlock()
	m.mu.Unlock()

	g.cancel()
	m.met.dropCluster(id)
	return nil
}
