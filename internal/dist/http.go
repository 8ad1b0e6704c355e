package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpjson"
	"repro/internal/runner"
)

// This file is the wall-clock half of the package: the HTTP faces of
// the coordinator (Server) and the agent daemon (AgentHost), plus the
// real Clock, the file-backed journal and the in-process transport the
// coordinator runs over. Everything protocol-shaped lives in
// coordinator.go / agent.go and is exercised against SimNet; the code
// here only moves bytes between the protocol and the network.

// Typed service errors, mapped onto HTTP statuses by respond.
var (
	// ErrNotFound names an unknown cluster or agent id.
	ErrNotFound = errors.New("dist: not found")
	// ErrExists rejects a create reusing a resident id.
	ErrExists = errors.New("dist: id already in use")
	// ErrNotFinished rejects reading a running cluster's result.
	ErrNotFinished = errors.New("dist: cluster still running")
	// errTransportClosed ends a coordinator run whose transport was shut
	// down underneath it (DELETE of a running cluster).
	errTransportClosed = errors.New("dist: transport closed")
)

// WallClock is the real-time Clock: wall nanoseconds and
// time.AfterFunc timers. SimNet supplies the deterministic twin.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() int64 { return time.Now().UnixNano() }

// After implements Clock.
func (WallClock) After(d int64, f func()) (cancel func()) {
	t := time.AfterFunc(time.Duration(d), f)
	return func() { t.Stop() }
}

// FileJournal persists an agent's grant journal as one JSON file,
// written atomically (temp + rename) so a crash mid-save leaves the
// previous journal intact rather than a torn one.
type FileJournal struct {
	Path string
}

// Load implements JournalStore. A missing file is a fresh start, not
// an error.
func (f FileJournal) Load() (AgentJournal, bool, error) {
	b, err := os.ReadFile(f.Path)
	if errors.Is(err, fs.ErrNotExist) {
		return AgentJournal{}, false, nil
	}
	if err != nil {
		return AgentJournal{}, false, err
	}
	var j AgentJournal
	if err := json.Unmarshal(b, &j); err != nil {
		return AgentJournal{}, false, fmt.Errorf("%w: journal %s: %w", runner.ErrInvalidConfig, f.Path, err)
	}
	return j, true, nil
}

// Save implements JournalStore.
func (f FileJournal) Save(j AgentJournal) error {
	b, err := json.Marshal(j)
	if err != nil {
		return err
	}
	tmp := f.Path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.Path)
}

// --- coordinator transport -------------------------------------------

// chanTransport is the coordinator's HTTP-facing Transport: upstream
// messages POSTed to /msgs land in an inbox the protocol loop Recvs
// from, and downstream sends append to per-agent feed queues that
// /feed streams replay by cursor — an agent that reconnects resumes
// exactly where it left off, and the agent's own epoch/lastEpoch
// dedupe makes replayed grants harmless.
type chanTransport struct {
	mu     sync.Mutex
	cond   *sync.Cond
	inbox  []Envelope
	feeds  map[string][]Msg
	closed bool
}

func newChanTransport() *chanTransport {
	t := &chanTransport{feeds: make(map[string][]Msg)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Now implements Transport.
func (t *chanTransport) Now() int64 { return time.Now().UnixNano() }

// Recv implements Transport: it returns the next upstream envelope, or
// timeout=true once the wall clock passes deadline — the protocol
// loop's straggler deadlines depend on Recv never blocking past it.
func (t *chanTransport) Recv(deadline int64) (Envelope, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed {
			return Envelope{}, false, errTransportClosed
		}
		if len(t.inbox) > 0 {
			env := t.inbox[0]
			t.inbox = t.inbox[1:]
			return env, false, nil
		}
		d := deadline - time.Now().UnixNano()
		if d <= 0 {
			return Envelope{}, true, nil
		}
		// Cond has no timed wait; an AfterFunc broadcast bounds this one.
		timer := time.AfterFunc(time.Duration(d), func() {
			t.mu.Lock()
			t.cond.Broadcast()
			t.mu.Unlock()
		})
		t.cond.Wait()
		timer.Stop()
	}
}

// Send implements Transport. It only appends to the agent's feed queue
// — it cannot block, which matters because the coordinator calls it
// with its own epoch loop running.
func (t *chanTransport) Send(agent string, m Msg) {
	t.mu.Lock()
	t.feeds[agent] = append(t.feeds[agent], m)
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Close implements Transport: it fails the next Recv and ends feed
// streams once they drain their queues.
func (t *chanTransport) Close() {
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// deliver queues one upstream message (a POST /msgs body) for Recv.
// After close it is dropped — the run it was for is over.
func (t *chanTransport) deliver(env Envelope) {
	t.mu.Lock()
	if !t.closed {
		t.inbox = append(t.inbox, env)
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

// nextFeed blocks until the agent's feed queue holds an entry at
// cursor, the transport closes (io.EOF after the queue drains), or ctx
// ends.
func (t *chanTransport) nextFeed(ctx context.Context, agent string, cursor int) (Msg, error) {
	return httpjson.Follow(ctx, t.cond,
		func() []Msg { return t.feeds[agent] },
		func() bool { return t.closed }, cursor)
}

// --- coordinator server ----------------------------------------------

// Server hosts distributed clusters over HTTP:
//
//	POST   /dist/clusters               create a cluster (ClusterCreateRequest) → ClusterInfo
//	GET    /dist/clusters               list resident clusters
//	GET    /dist/clusters/{id}          one cluster's ClusterInfo
//	POST   /dist/clusters/{id}/msgs     deliver one wire Msg (agent → coordinator) → 204
//	GET    /dist/clusters/{id}/feed     NDJSON downstream Msg stream for ?agent=A; ?from=N resumes
//	GET    /dist/clusters/{id}/stream   NDJSON cluster.EpochRecord stream; ?from=N resumes
//	GET    /dist/clusters/{id}/events   NDJSON membership Event stream; ?from=N resumes
//	GET    /dist/clusters/{id}/result   per-member results (finished clusters, else 409)
//	POST   /dist/clusters/{id}/budget   {"budget_w": w} → boundary retarget
//	DELETE /dist/clusters/{id}          close the transport and remove
//
// Every /msgs body and /feed line is one wire Msg (see wire.go) — the
// same frames SimNet round-trips in the deterministic tests. Idle
// streams emit keepalives: {"heartbeat":true} on /stream and /events
// (skipped by golden comparators), a {"type":"heartbeat"} wire message
// on /feed so every feed line still decodes with DecodeMsg.
type Server struct {
	// StreamHeartbeat is the idle keepalive period for the NDJSON
	// endpoints; 0 means the 15 s default, negative disables.
	StreamHeartbeat time.Duration

	// Metrics enables instrumentation (see NewMetrics); set it before
	// serving. The zero value disables it.
	Metrics Metrics

	mu       sync.Mutex
	clusters map[string]*hostedCluster
	nextID   int
}

type hostedCluster struct {
	id    string
	coord *Coordinator
	tr    *chanTransport
}

// NewServer returns an empty coordinator server.
func NewServer() *Server {
	return &Server{clusters: make(map[string]*hostedCluster)}
}

// Register mounts the server's routes on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /dist/clusters", s.create)
	mux.HandleFunc("GET /dist/clusters", s.list)
	mux.HandleFunc("GET /dist/clusters/{id}", s.resident(s.status))
	mux.HandleFunc("POST /dist/clusters/{id}/msgs", s.resident(s.msgs))
	mux.HandleFunc("GET /dist/clusters/{id}/feed", s.resident(s.feed))
	mux.HandleFunc("GET /dist/clusters/{id}/stream", s.resident(s.stream))
	mux.HandleFunc("GET /dist/clusters/{id}/events", s.resident(s.events))
	mux.HandleFunc("GET /dist/clusters/{id}/result", s.resident(s.result))
	mux.HandleFunc("POST /dist/clusters/{id}/budget", s.resident(s.budget))
	mux.HandleFunc("DELETE /dist/clusters/{id}", s.del)
}

// Close shuts every resident cluster's transport down.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, hc := range s.clusters {
		hc.tr.Close()
	}
}

// ClusterCreateRequest is the body of POST /dist/clusters. Durations
// are milliseconds; zero values take the Config defaults.
type ClusterCreateRequest struct {
	// ID names the cluster; generated ("dc1", "dc2", …) when empty.
	ID string `json:"id,omitempty"`
	// BudgetW is the global budget in watts. Required.
	BudgetW float64 `json:"budget_w"`
	// Arbiter picks the arbitration policy by registered name (default
	// "static"); the authoritative list is cluster.ArbiterNames.
	Arbiter string `json:"arbiter,omitempty"`
	// Expect is how many members to gather before epoch 0. Required.
	Expect          int   `json:"expect"`
	JoinTimeoutMs   int64 `json:"join_timeout_ms,omitempty"`
	EpochDeadlineMs int64 `json:"epoch_deadline_ms,omitempty"`
	GraceMs         int64 `json:"grace_ms,omitempty"`
	MaxEpochs       int   `json:"max_epochs,omitempty"`
}

// ClusterInfo is one hosted cluster's externally visible snapshot.
type ClusterInfo struct {
	ID string `json:"id"`
	CoordStatus
}

// ClusterResult is the body of GET /dist/clusters/{id}/result.
type ClusterResult struct {
	Results []cluster.MemberResult `json:"results"`
	Error   string                 `json:"error,omitempty"`
}

// validID bounds resource ids: they appear in URLs and journal file
// names, so only [A-Za-z0-9._-] up to 64 runes is accepted.
func validID(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

func (s *Server) create(w http.ResponseWriter, r *http.Request) {
	var req ClusterCreateRequest
	if !respond.Decode(w, r, &req) {
		return
	}
	arb := cluster.Arbiter(nil)
	if req.Arbiter != "" {
		a, ok := cluster.ArbiterByName(req.Arbiter)
		if !ok {
			respond.Error(w, fmt.Errorf("%w: unknown arbiter %q (want %s)", runner.ErrInvalidConfig, req.Arbiter, strings.Join(cluster.ArbiterNames(), ", ")))
			return
		}
		arb = a
	}
	coord, err := NewCoordinator(Config{
		BudgetW:         req.BudgetW,
		Arbiter:         arb,
		Expect:          req.Expect,
		JoinTimeoutNs:   req.JoinTimeoutMs * 1e6,
		EpochDeadlineNs: req.EpochDeadlineMs * 1e6,
		GraceNs:         req.GraceMs * 1e6,
		MaxEpochs:       req.MaxEpochs,
		Metrics:         s.Metrics,
	})
	if err != nil {
		respond.Error(w, err)
		return
	}
	s.mu.Lock()
	id := req.ID
	if id == "" {
		s.nextID++
		id = "dc" + strconv.Itoa(s.nextID)
	} else if !validID(id) {
		s.mu.Unlock()
		respond.Error(w, fmt.Errorf("%w: cluster id %q, want 1-64 of [A-Za-z0-9._-]", runner.ErrInvalidConfig, id))
		return
	}
	if _, dup := s.clusters[id]; dup {
		s.mu.Unlock()
		respond.Error(w, fmt.Errorf("%w: cluster %q", ErrExists, id))
		return
	}
	hc := &hostedCluster{id: id, coord: coord, tr: newChanTransport()}
	s.clusters[id] = hc
	s.mu.Unlock()
	go func() {
		// Run's error lands in the coordinator status; closing the
		// transport afterwards ends the feed streams cleanly.
		_ = hc.coord.Run(hc.tr)
		hc.tr.Close()
	}()
	w.Header().Set("Location", "/dist/clusters/"+id)
	httpjson.WriteJSON(w, http.StatusCreated, ClusterInfo{ID: id, CoordStatus: coord.Status()})
}

// resident adapts a handler that serves one resident cluster: it
// resolves the path's {id} and answers unknown ids itself.
func (s *Server) resident(h func(http.ResponseWriter, *http.Request, *hostedCluster)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		hc, ok := s.clusters[r.PathValue("id")]
		s.mu.Unlock()
		if !ok {
			respond.Error(w, fmt.Errorf("%w: cluster %q", ErrNotFound, r.PathValue("id")))
			return
		}
		h(w, r, hc)
	}
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	infos := make([]ClusterInfo, 0, len(s.clusters))
	for _, hc := range s.clusters {
		infos = append(infos, ClusterInfo{ID: hc.id, CoordStatus: hc.coord.Status()})
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	httpjson.WriteJSON(w, http.StatusOK, infos)
}

func (s *Server) status(w http.ResponseWriter, r *http.Request, hc *hostedCluster) {
	httpjson.WriteJSON(w, http.StatusOK, ClusterInfo{ID: hc.id, CoordStatus: hc.coord.Status()})
}

// msgs delivers one agent → coordinator wire message. The body is one
// Msg frame, decoded with the same strict DecodeMsg the fuzzer beats
// on — hostile bytes get a typed 400, never a panic or a hollow 200.
func (s *Server) msgs(w http.ResponseWriter, r *http.Request, hc *hostedCluster) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxResultBytes+1))
	if err != nil {
		respond.Error(w, fmt.Errorf("%w: message body: %v", ErrBadMessage, err))
		return
	}
	m, err := DecodeMsg(body)
	if err != nil {
		s.Metrics.wireMsgs.Inc()
		respond.Error(w, err)
		return
	}
	if m.Agent == "" {
		s.Metrics.wireMsgs.Inc()
		respond.Error(w, fmt.Errorf("%w: %s message names no agent", ErrBadMessage, m.Type))
		return
	}
	hc.tr.deliver(Envelope{Agent: m.Agent, Msg: m})
	w.WriteHeader(http.StatusNoContent)
}

// feed streams the coordinator → agent message queue for one agent as
// NDJSON wire frames. ?from=N skips the first N queued messages, so a
// reconnecting agent replays nothing it already handled; keepalives
// are {"type":"heartbeat"} frames and do not advance the cursor.
func (s *Server) feed(w http.ResponseWriter, r *http.Request, hc *hostedCluster) {
	agent := r.URL.Query().Get("agent")
	if agent == "" {
		respond.Error(w, fmt.Errorf("%w: feed needs ?agent=", runner.ErrInvalidConfig))
		return
	}
	s.streamNDJSON(w, r, Msg{Type: TypeHeartbeat},
		func(ctx context.Context, cursor int) (any, error) {
			return hc.tr.nextFeed(ctx, agent, cursor)
		})
}

func (s *Server) stream(w http.ResponseWriter, r *http.Request, hc *hostedCluster) {
	s.streamNDJSON(w, r, httpjson.Heartbeat{Heartbeat: true},
		func(ctx context.Context, cursor int) (any, error) {
			return hc.coord.NextRecord(ctx, cursor)
		})
}

func (s *Server) events(w http.ResponseWriter, r *http.Request, hc *hostedCluster) {
	s.streamNDJSON(w, r, httpjson.Heartbeat{Heartbeat: true},
		func(ctx context.Context, cursor int) (any, error) {
			return hc.coord.NextEvent(ctx, cursor)
		})
}

func (s *Server) result(w http.ResponseWriter, r *http.Request, hc *hostedCluster) {
	finished, runErr := hc.coord.Finished()
	if !finished {
		respond.Error(w, fmt.Errorf("%w: cluster %q", ErrNotFinished, hc.id))
		return
	}
	res := ClusterResult{Results: hc.coord.Results()}
	if runErr != nil {
		res.Error = runErr.Error()
	}
	httpjson.WriteJSON(w, http.StatusOK, res)
}

// budgetRequest is the body of POST /dist/clusters/{id}/budget.
type budgetRequest struct {
	BudgetW float64 `json:"budget_w"`
}

func (s *Server) budget(w http.ResponseWriter, r *http.Request, hc *hostedCluster) {
	var req budgetRequest
	if !respond.Decode(w, r, &req) {
		return
	}
	respond.Reply(w, http.StatusOK, map[string]float64{"budget_w": req.BudgetW}, hc.coord.SetBudgetW(req.BudgetW))
}

func (s *Server) del(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	hc, ok := s.clusters[id]
	if ok {
		delete(s.clusters, id)
	}
	s.mu.Unlock()
	if !ok {
		respond.Error(w, fmt.Errorf("%w: cluster %q", ErrNotFound, id))
		return
	}
	hc.tr.Close()
	w.WriteHeader(http.StatusNoContent)
}

// streamNDJSON runs the shared live-follow loop for one of the server's
// streams (the caller has already resolved the cluster): idle streams
// carry the keepalive value, and the stream's fate lands in the dist
// termination counters.
func (s *Server) streamNDJSON(w http.ResponseWriter, r *http.Request, keepalive any, next func(ctx context.Context, cursor int) (any, error)) {
	hb := s.StreamHeartbeat
	switch {
	case hb < 0:
		hb = 0
	case hb == 0:
		hb = defaultStreamHeartbeat
	}
	if err := httpjson.StreamNDJSON(w, r, hb, keepalive, s.Metrics.streams, nil, next); err != nil {
		respond.Error(w, err)
	}
}

// --- agent host -------------------------------------------------------

// AgentHost exposes this daemon's local sessions as remote cluster
// members:
//
//	POST   /dist/agents        create an agent (AgentCreateRequest) → AgentInfo
//	GET    /dist/agents        list resident agents
//	GET    /dist/agents/{id}   one agent's AgentInfo
//	DELETE /dist/agents/{id}   detach its members and remove
//
// Each created agent runs two goroutines against its coordinator URL:
// a sender draining a bounded queue of upstream messages into POST
// {coordinator}/msgs, and a follower tailing GET {coordinator}/feed
// from a cursor, decoding each NDJSON frame and handing it to the
// protocol Agent. Both survive coordinator restarts: the sender is
// best-effort (the protocol's announce backoff recovers lost frames)
// and the follower reconnects from its cursor with backoff.
type AgentHost struct {
	// Metrics enables instrumentation (see NewMetrics); set it before
	// serving. The zero value disables it.
	Metrics Metrics

	build      BuildFunc
	journalDir string

	// send POSTs one bounded frame and must not hang forever; follow
	// tails an unbounded stream and must not time out while idle.
	send   *http.Client
	follow *http.Client

	mu     sync.Mutex
	agents map[string]*hostedAgent
	nextID int
}

type hostedAgent struct {
	id          string
	coordinator string
	agent       *Agent
	sendq       chan Msg
	cancel      context.CancelFunc
}

// NewAgentHost returns an agent host building member sessions with
// build. journalDir, when non-empty, gives each agent a FileJournal at
// agent-<id>.json under it — the restart-recovery path; empty disables
// journaling.
func NewAgentHost(build BuildFunc, journalDir string) *AgentHost {
	return &AgentHost{
		build:      build,
		journalDir: journalDir,
		send:       &http.Client{Timeout: 10 * time.Second},
		follow:     &http.Client{},
		agents:     make(map[string]*hostedAgent),
	}
}

// Register mounts the host's routes on mux.
func (h *AgentHost) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /dist/agents", h.create)
	mux.HandleFunc("GET /dist/agents", h.list)
	mux.HandleFunc("GET /dist/agents/{id}", h.status)
	mux.HandleFunc("DELETE /dist/agents/{id}", h.del)
}

// Close stops every resident agent's goroutines (without detaching —
// a restarted daemon re-creates the agents and recovers from their
// journals).
func (h *AgentHost) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ha := range h.agents {
		ha.agent.Stop()
		ha.cancel()
	}
}

// AgentMemberRequest declares one hosted member: arbitration
// parameters plus the session to build, in exactly the schema of
// POST /sessions (the host's BuildFunc decides).
type AgentMemberRequest struct {
	ID        string          `json:"id"`
	Weight    float64         `json:"weight,omitempty"`
	FloorFrac float64         `json:"floor_frac,omitempty"`
	Session   json.RawMessage `json:"session"`
}

// AgentCreateRequest is the body of POST /dist/agents.
type AgentCreateRequest struct {
	// ID names the agent to the coordinator; generated when empty. An
	// agent re-created with its previous id and a journal directory
	// recovers its members' exact pre-crash state.
	ID string `json:"id,omitempty"`
	// Coordinator is the cluster's base URL, e.g.
	// http://host:8080/dist/clusters/dc1. Required.
	Coordinator string `json:"coordinator"`
	// Members may be empty when the journal already holds them.
	Members []AgentMemberRequest `json:"members,omitempty"`
	// AnnounceBackoffMs / HeartbeatMs tune AgentConfig; zero keeps the
	// defaults (2 s first re-announce, heartbeats off).
	AnnounceBackoffMs int64 `json:"announce_backoff_ms,omitempty"`
	HeartbeatMs       int64 `json:"heartbeat_ms,omitempty"`
}

// AgentInfo is one hosted agent's externally visible snapshot.
type AgentInfo struct {
	ID          string `json:"id"`
	Coordinator string `json:"coordinator"`
	AgentStatus
}

func (h *AgentHost) create(w http.ResponseWriter, r *http.Request) {
	var req AgentCreateRequest
	if !respond.Decode(w, r, &req) {
		return
	}
	coordURL := strings.TrimRight(req.Coordinator, "/")
	if coordURL == "" {
		respond.Error(w, fmt.Errorf("%w: agent names no coordinator URL", runner.ErrInvalidConfig))
		return
	}
	h.mu.Lock()
	id := req.ID
	if id == "" {
		h.nextID++
		id = "ag" + strconv.Itoa(h.nextID)
	} else if !validID(id) {
		h.mu.Unlock()
		respond.Error(w, fmt.Errorf("%w: agent id %q, want 1-64 of [A-Za-z0-9._-]", runner.ErrInvalidConfig, id))
		return
	}
	if _, dup := h.agents[id]; dup {
		h.mu.Unlock()
		respond.Error(w, fmt.Errorf("%w: agent %q", ErrExists, id))
		return
	}
	h.mu.Unlock()

	specs := make([]MemberSpec, len(req.Members))
	for i, m := range req.Members {
		specs[i] = MemberSpec{ID: m.ID, Weight: m.Weight, FloorFrac: m.FloorFrac, Spec: m.Session}
	}
	var journal JournalStore
	if h.journalDir != "" {
		journal = FileJournal{Path: filepath.Join(h.journalDir, "agent-"+id+".json")}
	}
	ha := &hostedAgent{id: id, coordinator: coordURL, sendq: make(chan Msg, 256)}
	agent, err := NewAgent(AgentConfig{
		Name:    id,
		Members: specs,
		Build:   h.build,
		Send: func(m Msg) error {
			// Best effort under the protocol mutex: queue, never block.
			// A full queue drops the frame; announce backoff and grant
			// resends recover it.
			select {
			case ha.sendq <- m:
			default:
			}
			return nil
		},
		Clock:             WallClock{},
		Journal:           journal,
		AnnounceBackoffNs: req.AnnounceBackoffMs * 1e6,
		HeartbeatNs:       req.HeartbeatMs * 1e6,
		Metrics:           h.Metrics,
	})
	if err != nil {
		respond.Error(w, err)
		return
	}
	ha.agent = agent

	h.mu.Lock()
	if _, dup := h.agents[id]; dup {
		h.mu.Unlock()
		respond.Error(w, fmt.Errorf("%w: agent %q", ErrExists, id))
		return
	}
	h.agents[id] = ha
	h.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	ha.cancel = cancel
	go h.runSender(ctx, ha)
	go h.runFollower(ctx, ha)
	agent.Start()

	w.Header().Set("Location", "/dist/agents/"+id)
	httpjson.WriteJSON(w, http.StatusCreated, AgentInfo{ID: id, Coordinator: coordURL, AgentStatus: agent.Status()})
}

// runSender drains the agent's upstream queue into POST /msgs. Frames
// that fail to post are dropped — the protocol layer already treats
// Send as best effort.
func (h *AgentHost) runSender(ctx context.Context, ha *hostedAgent) {
	post := func(m Msg) {
		b, err := EncodeMsg(m)
		if err != nil {
			return
		}
		resp, err := h.send.Post(ha.coordinator+"/msgs", "application/json", bytes.NewReader(b))
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	for {
		select {
		case m := <-ha.sendq:
			post(m)
		case <-ctx.Done():
			// Flush what is already queued (detach notices on DELETE),
			// bounded by the send client's timeout per frame.
			for {
				select {
				case m := <-ha.sendq:
					post(m)
				default:
					return
				}
			}
		}
	}
}

// runFollower tails GET /feed from a cursor, handing every decoded
// frame to the protocol agent. Disconnects (including a coordinator
// restart) reconnect from the cursor with backoff; the stream's
// keepalive frames do not advance it. The follower exits when every
// member reaches a terminal state or the cluster is gone (404).
func (h *AgentHost) runFollower(ctx context.Context, ha *hostedAgent) {
	cursor := 0
	backoff := 500 * time.Millisecond
	for ctx.Err() == nil && !ha.agent.Done() {
		n, gone := h.followOnce(ctx, ha, cursor)
		cursor += n
		if gone {
			return
		}
		if n > 0 {
			backoff = 500 * time.Millisecond
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// followOnce runs one feed connection until it ends, returning how
// many data frames were consumed and whether the cluster is gone.
func (h *AgentHost) followOnce(ctx context.Context, ha *hostedAgent, cursor int) (n int, gone bool) {
	url := fmt.Sprintf("%s/feed?agent=%s&from=%d", ha.coordinator, ha.id, cursor)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, true
	}
	resp, err := h.follow.Do(req)
	if err != nil {
		return 0, false
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return 0, true
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), MaxMsgBytes+1)
	for sc.Scan() {
		m, err := DecodeMsg(sc.Bytes())
		if err != nil {
			// A frame this coordinator cannot produce means a broken
			// stream, not a broken protocol: drop the connection and
			// resume from the cursor.
			h.Metrics.wireFeed.Inc()
			return n, false
		}
		if m.Type == TypeHeartbeat {
			continue
		}
		ha.agent.Handle(m)
		n++
		if ha.agent.Done() {
			return n, true
		}
	}
	return n, false
}

func (h *AgentHost) list(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	infos := make([]AgentInfo, 0, len(h.agents))
	for _, ha := range h.agents {
		infos = append(infos, AgentInfo{ID: ha.id, Coordinator: ha.coordinator, AgentStatus: ha.agent.Status()})
	}
	h.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	httpjson.WriteJSON(w, http.StatusOK, infos)
}

func (h *AgentHost) status(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	ha, ok := h.agents[r.PathValue("id")]
	h.mu.Unlock()
	if !ok {
		respond.Error(w, fmt.Errorf("%w: agent %q", ErrNotFound, r.PathValue("id")))
		return
	}
	httpjson.WriteJSON(w, http.StatusOK, AgentInfo{ID: ha.id, Coordinator: ha.coordinator, AgentStatus: ha.agent.Status()})
}

func (h *AgentHost) del(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h.mu.Lock()
	ha, ok := h.agents[id]
	if ok {
		delete(h.agents, id)
	}
	h.mu.Unlock()
	if !ok {
		respond.Error(w, fmt.Errorf("%w: agent %q", ErrNotFound, id))
		return
	}
	// Detach queues the withdrawal notices; cancelling lets the sender
	// flush them and stops the follower.
	ha.agent.Detach()
	ha.cancel()
	w.WriteHeader(http.StatusNoContent)
}

// --- shared HTTP plumbing --------------------------------------------

// defaultStreamHeartbeat keeps idle NDJSON streams visibly alive
// through proxies without a write timeout.
const defaultStreamHeartbeat = 15 * time.Second

// respond maps typed service errors onto HTTP statuses.
var respond = httpjson.Responder(func(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBadMessage), errors.Is(err, runner.ErrInvalidConfig):
		return http.StatusBadRequest
	case errors.Is(err, ErrExists), errors.Is(err, ErrNotFinished):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
})
