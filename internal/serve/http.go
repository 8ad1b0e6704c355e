package serve

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/httpjson"
	"repro/internal/runner"
)

// NewHandler returns the fastcapd HTTP API over m:
//
//	POST   /sessions                 create a session (Request JSON) → Status
//	GET    /sessions                 list resident sessions
//	GET    /sessions/{id}            one session's Status
//	GET    /sessions/{id}/stream     NDJSON per-epoch records, live; ?from=N resumes
//	POST   /sessions/{id}/budget     {"budget_frac": f} → live retarget
//	GET    /sessions/{id}/result     finalized runner.Result (terminal sessions)
//	GET    /sessions/{id}/recording  captured replay.Recording (record=true sessions)
//	DELETE /sessions/{id}            cancel and remove
//	GET    /healthz                  liveness
//	GET    /readyz                   readiness: 200 accepting, 503 draining
//
// and the cluster groups (one global budget arbitrated across member
// sessions at epoch boundaries):
//
//	POST   /clusters                      create a group (ClusterRequest JSON) → ClusterStatus
//	GET    /clusters                      list resident groups
//	GET    /clusters/{id}                 one group's ClusterStatus
//	GET    /clusters/{id}/stream          NDJSON per-epoch member-grant records; ?from=N resumes
//	POST   /clusters/{id}/budget          {"budget_w": w} → live global retarget
//	POST   /clusters/{id}/members         attach a member (ClusterMemberRequest JSON)
//	DELETE /clusters/{id}/members/{mid}   detach a member at the next epoch boundary
//	GET    /clusters/{id}/result          finalized per-member results (terminal groups)
//	DELETE /clusters/{id}                 cancel and remove
//
// Each session stream line is exactly the JSON encoding of a
// runner.EpochRecord — byte-identical to marshaling the same epoch of a
// solo runner.Run — so consumers can diff a service stream against a
// local run. Cluster stream lines are cluster.EpochRecord values.
func NewHandler(m *Manager) http.Handler {
	h := &handler{m: m}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.health)
	mux.HandleFunc("GET /readyz", h.ready)
	mux.HandleFunc("POST /sessions", h.create)
	mux.HandleFunc("GET /sessions", h.list)
	mux.HandleFunc("GET /sessions/{id}", h.status)
	mux.HandleFunc("GET /sessions/{id}/stream", h.stream)
	mux.HandleFunc("POST /sessions/{id}/budget", h.budget)
	mux.HandleFunc("GET /sessions/{id}/result", h.result)
	mux.HandleFunc("GET /sessions/{id}/recording", h.recording)
	mux.HandleFunc("DELETE /sessions/{id}", h.del)
	mux.HandleFunc("POST /clusters", h.clusterCreate)
	mux.HandleFunc("GET /clusters", h.clusterList)
	mux.HandleFunc("GET /clusters/{id}", h.clusterStatus)
	mux.HandleFunc("GET /clusters/{id}/stream", h.clusterStream)
	mux.HandleFunc("POST /clusters/{id}/budget", h.clusterBudget)
	mux.HandleFunc("POST /clusters/{id}/members", h.clusterAttach)
	mux.HandleFunc("DELETE /clusters/{id}/members/{mid}", h.clusterDetach)
	mux.HandleFunc("GET /clusters/{id}/result", h.clusterResult)
	mux.HandleFunc("DELETE /clusters/{id}", h.clusterDel)
	return mux
}

type handler struct {
	m *Manager
}

// respond maps typed service errors onto HTTP statuses (with a JSON
// error body).
var respond = httpjson.Responder(func(err error) int {
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoRecording):
		return http.StatusNotFound
	case errors.Is(err, runner.ErrInvalidConfig):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFinished), errors.Is(err, ErrFinished):
		return http.StatusConflict
	case errors.Is(err, ErrTooManySessions):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
})

func (h *handler) health(w http.ResponseWriter, r *http.Request) {
	httpjson.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "sessions": h.m.Count()})
}

// ready is the readiness probe, distinct from liveness: a draining
// daemon is alive (/healthz stays 200 — don't restart it) but must stop
// receiving traffic (503 here rotates it out of a balancer, and the
// smoke scripts poll it instead of sleeping).
func (h *handler) ready(w http.ResponseWriter, r *http.Request) {
	if h.m.Draining() {
		httpjson.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "draining": true})
		return
	}
	httpjson.WriteJSON(w, http.StatusOK, map[string]any{"ready": true, "sessions": h.m.Count()})
}

func (h *handler) create(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !respond.Decode(w, r, &req) {
		return
	}
	st, err := h.m.Create(req)
	if err == nil {
		w.Header().Set("Location", "/sessions/"+st.ID)
	}
	respond.Reply(w, http.StatusCreated, st, err)
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	httpjson.WriteJSON(w, http.StatusOK, h.m.List())
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	st, err := h.m.Status(r.PathValue("id"))
	respond.Reply(w, http.StatusOK, st, err)
}

// streamNDJSON runs the shared live-follow loop (httpjson.StreamNDJSON)
// for one of the manager's streams: lookup resolves the id before the
// 200 is committed, idle streams carry {"heartbeat":true} keepalives,
// and the stream's fate lands in the manager's termination counters.
func (h *handler) streamNDJSON(w http.ResponseWriter, r *http.Request, lookup func() error, next func(ctx context.Context, cursor int) (any, error)) {
	err := httpjson.StreamNDJSON(w, r, h.m.streamHeartbeat(), httpjson.Heartbeat{Heartbeat: true}, h.m.met.streams, lookup, next)
	if err != nil {
		respond.Error(w, err)
	}
}

// stream writes the session's per-epoch records as NDJSON, following
// the live run until it reaches a terminal state (or the client goes
// away).
func (h *handler) stream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h.streamNDJSON(w, r,
		func() error { _, err := h.m.Status(id); return err },
		func(ctx context.Context, cursor int) (any, error) { return h.m.Next(ctx, id, cursor) })
}

// budgetRequest is the body of POST /sessions/{id}/budget.
type budgetRequest struct {
	BudgetFrac float64 `json:"budget_frac"`
}

func (h *handler) budget(w http.ResponseWriter, r *http.Request) {
	var req budgetRequest
	if !respond.Decode(w, r, &req) {
		return
	}
	err := h.m.SetBudget(r.PathValue("id"), req.BudgetFrac)
	respond.Reply(w, http.StatusOK, map[string]float64{"budget_frac": req.BudgetFrac}, err)
}

func (h *handler) result(w http.ResponseWriter, r *http.Request) {
	res, err := h.m.Result(r.PathValue("id"))
	respond.Reply(w, http.StatusOK, res, err)
}

func (h *handler) recording(w http.ResponseWriter, r *http.Request) {
	// WriteRecording validates (exists, recorded, terminal) before its
	// first write, so deferring the header keeps error statuses honest
	// while the recording itself streams straight to the connection.
	w.Header().Set("Content-Type", "application/json")
	dw := &headerDeferringWriter{w: w}
	if err := h.m.WriteRecording(r.PathValue("id"), dw); err != nil && !dw.wrote {
		// Mid-stream write failures (client gone, encode error after the
		// first byte) can only be ended, not re-statused — appending an
		// error object onto a partial 200 body would corrupt the JSON.
		respond.Error(w, err)
	}
}

// headerDeferringWriter commits the 200 lazily on first write, letting
// WriteRecording's validation errors still pick their own status code.
type headerDeferringWriter struct {
	w     http.ResponseWriter
	wrote bool
}

func (d *headerDeferringWriter) Write(p []byte) (int, error) {
	if !d.wrote {
		d.wrote = true
		d.w.WriteHeader(http.StatusOK)
	}
	return d.w.Write(p)
}

func (h *handler) del(w http.ResponseWriter, r *http.Request) {
	respond.Reply(w, http.StatusNoContent, nil, h.m.Close(r.PathValue("id")))
}

// --- cluster groups ---------------------------------------------------

func (h *handler) clusterCreate(w http.ResponseWriter, r *http.Request) {
	var req ClusterRequest
	if !respond.Decode(w, r, &req) {
		return
	}
	st, err := h.m.CreateCluster(req)
	if err == nil {
		w.Header().Set("Location", "/clusters/"+st.ID)
	}
	respond.Reply(w, http.StatusCreated, st, err)
}

func (h *handler) clusterList(w http.ResponseWriter, r *http.Request) {
	httpjson.WriteJSON(w, http.StatusOK, h.m.ListClusters())
}

func (h *handler) clusterStatus(w http.ResponseWriter, r *http.Request) {
	st, err := h.m.ClusterStatus(r.PathValue("id"))
	respond.Reply(w, http.StatusOK, st, err)
}

// clusterStream follows the group's per-epoch member-grant records as
// NDJSON, the cluster-level twin of the session stream.
func (h *handler) clusterStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h.streamNDJSON(w, r,
		func() error { _, err := h.m.ClusterStatus(id); return err },
		func(ctx context.Context, cursor int) (any, error) { return h.m.ClusterNext(ctx, id, cursor) })
}

// clusterBudgetRequest is the body of POST /clusters/{id}/budget.
type clusterBudgetRequest struct {
	BudgetW float64 `json:"budget_w"`
}

func (h *handler) clusterBudget(w http.ResponseWriter, r *http.Request) {
	var req clusterBudgetRequest
	if !respond.Decode(w, r, &req) {
		return
	}
	err := h.m.SetClusterBudget(r.PathValue("id"), req.BudgetW)
	respond.Reply(w, http.StatusOK, map[string]float64{"budget_w": req.BudgetW}, err)
}

func (h *handler) clusterAttach(w http.ResponseWriter, r *http.Request) {
	var req ClusterMemberRequest
	if !respond.Decode(w, r, &req) {
		return
	}
	st, err := h.m.AttachMember(r.PathValue("id"), req)
	respond.Reply(w, http.StatusOK, st, err)
}

func (h *handler) clusterDetach(w http.ResponseWriter, r *http.Request) {
	respond.Reply(w, http.StatusNoContent, nil, h.m.DetachMember(r.PathValue("id"), r.PathValue("mid")))
}

func (h *handler) clusterResult(w http.ResponseWriter, r *http.Request) {
	res, err := h.m.ClusterResult(r.PathValue("id"))
	respond.Reply(w, http.StatusOK, res, err)
}

func (h *handler) clusterDel(w http.ResponseWriter, r *http.Request) {
	respond.Reply(w, http.StatusNoContent, nil, h.m.CloseCluster(r.PathValue("id")))
}
