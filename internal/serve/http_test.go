package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/serve"
)

// newServer boots the full HTTP stack over a fresh manager.
func newServer(t *testing.T, o serve.Options) (*httptest.Server, *serve.Manager) {
	t.Helper()
	m := serve.NewManager(o)
	srv := httptest.NewServer(serve.NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Shutdown(context.Background())
	})
	return srv, m
}

// doJSON posts v (or GETs when v is nil) and returns the response.
func doJSON(t *testing.T, method, url string, v any) *http.Response {
	t.Helper()
	var body io.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) serve.Status {
	t.Helper()
	defer resp.Body.Close()
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// The full curl flow of the README quick-start, verified to the byte:
// create over HTTP, stream NDJSON, fetch the result — every line and
// the final aggregate identical to a solo runner.Run of the same
// request — then delete.
func TestHTTPLifecycleGolden(t *testing.T) {
	srv, _ := newServer(t, serve.Options{Workers: 2})
	req := quickReq("MIX3", 4, 6, 0.6)
	solo := soloRun(t, req)

	resp := doJSON(t, "POST", srv.URL+"/sessions", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc == "" {
		t.Error("create response has no Location header")
	}
	st := decodeStatus(t, resp)
	if st.ID == "" {
		t.Fatal("create returned no id")
	}

	// Stream: every NDJSON line must be byte-identical to the solo
	// run's marshaled epoch record.
	stream := doJSON(t, "GET", srv.URL+"/sessions/"+st.ID+"/stream", nil)
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		if isHeartbeatLine(sc.Bytes()) {
			continue // keepalives are not epoch records
		}
		if lines >= len(solo.Epochs) {
			t.Fatalf("stream produced more than the %d solo epochs", len(solo.Epochs))
		}
		want := mustJSON(t, solo.Epochs[lines])
		if !bytes.Equal(sc.Bytes(), want) {
			t.Errorf("stream line %d diverged:\nserved: %s\nsolo:   %s", lines, sc.Bytes(), want)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(solo.Epochs) {
		t.Fatalf("streamed %d lines, want %d", lines, len(solo.Epochs))
	}

	// Result: byte-identical to the solo aggregate.
	res := doJSON(t, "GET", srv.URL+"/sessions/"+st.ID+"/result", nil)
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", res.StatusCode, body)
	}
	if want := mustJSON(t, solo); !bytes.Equal(bytes.TrimRight(body, "\n"), want) {
		t.Error("HTTP result diverged from the solo run")
	}

	// Status reflects completion; a ?from cursor resumes mid-stream.
	if got := decodeStatus(t, doJSON(t, "GET", srv.URL+"/sessions/"+st.ID, nil)); got.State != serve.StateDone || got.EpochsDone != 6 {
		t.Errorf("status after run: %+v", got)
	}
	resumed := doJSON(t, "GET", srv.URL+"/sessions/"+st.ID+"/stream?from=4", nil)
	rb, err := io.ReadAll(resumed.Body)
	resumed.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(rb), "\n"); got != 2 {
		t.Errorf("resume from 4 of 6 yielded %d lines, want 2", got)
	}

	// Delete, then everything 404s.
	if del := doJSON(t, "DELETE", srv.URL+"/sessions/"+st.ID, nil); del.StatusCode != http.StatusNoContent {
		t.Errorf("delete status %d", del.StatusCode)
	}
	if after := doJSON(t, "GET", srv.URL+"/sessions/"+st.ID, nil); after.StatusCode != http.StatusNotFound {
		t.Errorf("status after delete %d, want 404", after.StatusCode)
	}
}

// Live budget retargeting over HTTP: the stream must show an epoch
// under the new cap, and the run keeps going.
func TestHTTPBudgetRetarget(t *testing.T) {
	srv, _ := newServer(t, serve.Options{Workers: 1})
	st := decodeStatus(t, doJSON(t, "POST", srv.URL+"/sessions", quickReq("MID1", 4, 5_000, 0.8)))

	if resp := doJSON(t, "POST", srv.URL+"/sessions/"+st.ID+"/budget", map[string]float64{"budget_frac": 0.5}); resp.StatusCode != http.StatusOK {
		t.Fatalf("budget status %d", resp.StatusCode)
	}
	stream := doJSON(t, "GET", srv.URL+"/sessions/"+st.ID+"/stream", nil)
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(nil, 1<<20)
	found := false
	for i := 0; i < 100 && sc.Scan(); i++ {
		var rec runner.EpochRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.BudgetW == 0.5*st.PeakW {
			found = true
			break
		}
	}
	if !found {
		t.Error("no streamed epoch ran under the retargeted budget")
	}
	doJSON(t, "DELETE", srv.URL+"/sessions/"+st.ID, nil).Body.Close()
}

// A recorded session serves its trace as JSON that decodes into a
// replayable recording.
func TestHTTPRecordingEndpoint(t *testing.T) {
	srv, m := newServer(t, serve.Options{Workers: 1})
	req := quickReq("MIX2", 4, 4, 0.6)
	req.Record = true
	st := decodeStatus(t, doJSON(t, "POST", srv.URL+"/sessions", req))
	collect(t, m, st.ID) // wait for completion

	resp := doJSON(t, "GET", srv.URL+"/sessions/"+st.ID+"/recording", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recording status %d", resp.StatusCode)
	}
	rec, err := replay.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Epochs) != 4 || rec.Cores() != 4 {
		t.Errorf("served recording has %d epochs over %d cores, want 4 over 4", len(rec.Epochs), rec.Cores())
	}
}

// Error mapping: each typed failure surfaces as its HTTP status.
func TestHTTPErrorMapping(t *testing.T) {
	srv, m := newServer(t, serve.Options{Workers: 1, MaxSessions: 1})

	cases := []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"malformed body", func() *http.Response {
			resp, err := http.Post(srv.URL+"/sessions", "application/json", strings.NewReader("{nope"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"unknown field", func() *http.Response {
			resp, err := http.Post(srv.URL+"/sessions", "application/json", strings.NewReader(`{"mix":"MIX3","budget_frc":0.6}`))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest},
		{"invalid config", func() *http.Response {
			return doJSON(t, "POST", srv.URL+"/sessions", quickReq("NOPE", 4, 2, 0.6))
		}, http.StatusBadRequest},
		{"unknown session", func() *http.Response {
			return doJSON(t, "GET", srv.URL+"/sessions/zzz", nil)
		}, http.StatusNotFound},
		{"unknown session stream", func() *http.Response {
			return doJSON(t, "GET", srv.URL+"/sessions/zzz/stream", nil)
		}, http.StatusNotFound},
		{"bad stream cursor", func() *http.Response {
			st := decodeStatus(t, doJSON(t, "POST", srv.URL+"/sessions", quickReq("MID1", 4, 10_000, 0.6)))
			t.Cleanup(func() { doJSON(t, "DELETE", srv.URL+"/sessions/"+st.ID, nil).Body.Close() })
			return doJSON(t, "GET", srv.URL+"/sessions/"+st.ID+"/stream?from=-2", nil)
		}, http.StatusBadRequest},
		{"result while live", func() *http.Response {
			sts := m.List()
			return doJSON(t, "GET", srv.URL+"/sessions/"+sts[len(sts)-1].ID+"/result", nil)
		}, http.StatusConflict},
		{"recording absent", func() *http.Response {
			// Created without record: ErrNoRecording (404) fires before
			// the still-running guard.
			sts := m.List()
			return doJSON(t, "GET", srv.URL+"/sessions/"+sts[len(sts)-1].ID+"/recording", nil)
		}, http.StatusNotFound},
		{"too many sessions", func() *http.Response {
			return doJSON(t, "POST", srv.URL+"/sessions", quickReq("MID2", 4, 2, 0.6))
		}, http.StatusTooManyRequests},
		{"bad budget", func() *http.Response {
			sts := m.List()
			return doJSON(t, "POST", srv.URL+"/sessions/"+sts[len(sts)-1].ID+"/budget", map[string]float64{"budget_frac": 1.5})
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := tc.do()
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, bytes.TrimSpace(body))
		}
	}
}

// Draining over HTTP: once Shutdown begins, creates get 503.
func TestHTTPDrainRejectsCreates(t *testing.T) {
	m := serve.NewManager(serve.Options{Workers: 1})
	srv := httptest.NewServer(serve.NewHandler(m))
	defer srv.Close()
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp := doJSON(t, "POST", srv.URL+"/sessions", quickReq("MIX3", 4, 2, 0.6))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("create while draining: %d, want 503", resp.StatusCode)
	}
}

// Listing and liveness.
func TestHTTPListAndHealth(t *testing.T) {
	srv, _ := newServer(t, serve.Options{Workers: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		st := decodeStatus(t, doJSON(t, "POST", srv.URL+"/sessions", quickReq("MID1", 4, 2, 0.6)))
		ids = append(ids, st.ID)
	}
	resp := doJSON(t, "GET", srv.URL+"/sessions", nil)
	defer resp.Body.Close()
	var list []serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("listed %d sessions, want 3", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s (creation order)", i, st.ID, ids[i])
		}
	}
	health := doJSON(t, "GET", srv.URL+"/healthz", nil)
	defer health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", health.StatusCode)
	}
}

// A stream opened on a session that then gets deleted ends cleanly
// rather than hanging — the watcher is woken by the close broadcast.
func TestHTTPStreamEndsOnDelete(t *testing.T) {
	srv, _ := newServer(t, serve.Options{Workers: 1})
	st := decodeStatus(t, doJSON(t, "POST", srv.URL+"/sessions", quickReq("MID1", 4, 10_000, 0.6)))

	stream := doJSON(t, "GET", srv.URL+"/sessions/"+st.ID+"/stream", nil)
	defer stream.Body.Close()
	// Read one record to ensure the stream is live, then delete.
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(nil, 1<<20)
	if !sc.Scan() {
		t.Fatalf("no first record: %v", sc.Err())
	}
	doJSON(t, "DELETE", srv.URL+"/sessions/"+st.ID, nil).Body.Close()
	for sc.Scan() {
		// drain whatever landed before the cancel
	}
	if err := sc.Err(); err != nil {
		t.Errorf("stream ended with transport error %v, want clean EOF", err)
	}
}

// isHeartbeatLine reports a stream keepalive — the {"heartbeat":true}
// line idle NDJSON streams emit. Golden comparators skip these: they
// carry no epoch data and their timing is wall-clock, not simulated.
func isHeartbeatLine(b []byte) bool {
	var hb struct {
		Heartbeat bool `json:"heartbeat"`
	}
	return json.Unmarshal(b, &hb) == nil && hb.Heartbeat
}

// An idle stream must emit {"heartbeat":true} keepalives: stream with a
// cursor ahead of production, so nothing lands at it while the session
// is still running, and count the heartbeats that arrive in the gap.
func TestHTTPStreamHeartbeat(t *testing.T) {
	srv, _ := newServer(t, serve.Options{Workers: 1, StreamHeartbeat: 2 * time.Millisecond})
	st := decodeStatus(t, doJSON(t, "POST", srv.URL+"/sessions", quickReq("MID1", 4, 4_000, 0.6)))

	stream := doJSON(t, "GET", srv.URL+"/sessions/"+st.ID+"/stream?from=4000", nil)
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(nil, 1<<20)
	beats, records := 0, 0
	for sc.Scan() {
		if isHeartbeatLine(sc.Bytes()) {
			if got, want := string(sc.Bytes()), `{"heartbeat":true}`; got != want {
				t.Fatalf("heartbeat line %q, want %q", got, want)
			}
			beats++
			if beats == 3 {
				// Seen enough: delete the tenant, which ends the stream,
				// rather than wait out its remaining epochs.
				doJSON(t, "DELETE", srv.URL+"/sessions/"+st.ID, nil).Body.Close()
			}
			continue
		}
		records++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if beats == 0 {
		t.Error("idle stream emitted no heartbeats")
	}
	if records != 0 {
		t.Errorf("cursor-ahead stream emitted %d records, want 0", records)
	}
}

// Example-shaped smoke for the docs: the exact curl bodies from the
// quick-start parse and run.
func TestHTTPQuickstartBodies(t *testing.T) {
	srv, m := newServer(t, serve.Options{Workers: 1})
	resp, err := http.Post(srv.URL+"/sessions", "application/json",
		strings.NewReader(`{"mix":"MIX3","policy":"FastCap","budget_frac":0.6,"cores":4,"epochs":3,"epoch_ms":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp)
	if st.State.Terminal() {
		t.Fatalf("quick-start session born terminal: %+v", st)
	}
	recs, res := collect(t, m, st.ID)
	if len(recs) != 3 || len(res.Epochs) != 3 {
		t.Errorf("quick-start run: %d streamed, %d in result, want 3", len(recs), len(res.Epochs))
	}
	if res.PolicyName != "FastCap" {
		t.Errorf("policy %q", res.PolicyName)
	}
	// The run is over: a retarget can no longer take effect and must
	// conflict instead of returning a hollow 200.
	late := doJSON(t, "POST", srv.URL+"/sessions/"+st.ID+"/budget", map[string]float64{"budget_frac": 0.5})
	late.Body.Close()
	if late.StatusCode != http.StatusConflict {
		t.Errorf("retarget of a finished session: %d, want 409", late.StatusCode)
	}
}
