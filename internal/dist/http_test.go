package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpjson"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// newDistServer mounts a coordinator Server and an AgentHost (building
// member sessions through serve.SessionFromSpec, the production hook)
// on one test daemon.
func newDistServer(t *testing.T, journalDir string) (*httptest.Server, *Server, *AgentHost) {
	t.Helper()
	srv := NewServer()
	srv.StreamHeartbeat = 50 * time.Millisecond
	host := NewAgentHost(serve.SessionFromSpec, journalDir)
	mux := http.NewServeMux()
	srv.Register(mux)
	host.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		host.Close()
		srv.Close()
		ts.Close()
	})
	return ts, srv, host
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("%s %s: status %d, want %d: %s", resp.Request.Method, resp.Request.URL, resp.StatusCode, want, buf.String())
	}
}

// sessionSpec is a serve.Request JSON for a small member session.
func sessionSpec(mix string, epochs int) string {
	return fmt.Sprintf(`{"mix":%q,"budget_frac":1,"cores":4,"epochs":%d,"epoch_ms":0.5}`, mix, epochs)
}

// readStream follows an NDJSON endpoint to EOF, returning its data
// lines (keepalive heartbeats skipped).
func readStream(t *testing.T, url string) [][]byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var lines [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var hb httpjson.Heartbeat
		if json.Unmarshal(sc.Bytes(), &hb) == nil && hb.Heartbeat {
			continue
		}
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("GET %s: scan: %v", url, err)
	}
	return lines
}

// TestDistHTTPEndToEnd runs a three-member cluster across two agents
// over real HTTP — announce, barrier epochs, reports and results all
// through POST /msgs and the /feed stream — and checks the arbitration
// invariants on the streamed records.
func TestDistHTTPEndToEnd(t *testing.T) {
	ts, srv, _ := newDistServer(t, "")
	srv.Metrics = NewMetrics(metrics.NewRegistry())

	resp := postJSON(t, ts.URL+"/dist/clusters",
		`{"id":"c1","budget_w":20,"arbiter":"slack","expect":3,"epoch_deadline_ms":10000}`)
	wantStatus(t, resp, http.StatusCreated)
	coordURL := ts.URL + "/dist/clusters/c1"

	resp = postJSON(t, ts.URL+"/dist/agents", fmt.Sprintf(
		`{"id":"a1","coordinator":%q,"members":[{"id":"m1","session":%s},{"id":"m2","session":%s}]}`,
		coordURL, sessionSpec("MIX1", 4), sessionSpec("MEM2", 3)))
	wantStatus(t, resp, http.StatusCreated)
	resp = postJSON(t, ts.URL+"/dist/agents", fmt.Sprintf(
		`{"id":"a2","coordinator":%q,"members":[{"id":"m3","session":%s}]}`,
		coordURL, sessionSpec("ILP2", 5)))
	wantStatus(t, resp, http.StatusCreated)

	// The stream follows the live run and ends when the cluster
	// finishes: the longest member has 5 epochs, so 5 records.
	var records []cluster.EpochRecord
	for _, line := range readStream(t, coordURL+"/stream") {
		var rec cluster.EpochRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record line %q: %v", line, err)
		}
		records = append(records, rec)
	}
	if len(records) != 5 {
		t.Fatalf("streamed %d records, want 5", len(records))
	}
	seen := map[string]int{}
	for i, rec := range records {
		if rec.Epoch != i {
			t.Fatalf("record %d has epoch %d", i, rec.Epoch)
		}
		var sum float64
		for _, mg := range rec.Members {
			sum += mg.GrantW
			seen[mg.ID]++
		}
		if sum > rec.BudgetW+1e-9 {
			t.Fatalf("epoch %d grants %.3f W above budget %.3f W", rec.Epoch, sum, rec.BudgetW)
		}
	}
	if seen["m1"] != 4 || seen["m2"] != 3 || seen["m3"] != 5 {
		t.Fatalf("member epoch counts %v, want m1:4 m2:3 m3:5", seen)
	}

	var events []Event
	for _, line := range readStream(t, coordURL+"/events") {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	joins := 0
	for _, ev := range events {
		if ev.Type == "evict" || ev.Type == "abandon" {
			t.Fatalf("fault-free run produced %+v", ev)
		}
		if ev.Type == "join" {
			joins++
		}
	}
	if joins != 3 {
		t.Fatalf("%d join events, want 3 (events %+v)", joins, events)
	}

	res := getResult(t, coordURL)
	if res.Error != "" {
		t.Fatalf("cluster finished with error %q", res.Error)
	}
	if len(res.Results) != 3 {
		t.Fatalf("%d member results, want 3", len(res.Results))
	}
	for _, mr := range res.Results {
		if mr.Result == nil {
			t.Fatalf("member %s finished without a result", mr.ID)
		}
	}

	// The hosted coordinator fed the epoch core's families, and both
	// streams read above ran to their end and were counted like serve
	// streams are.
	if got := srv.Metrics.core.Epochs.Value(); got != 5 {
		t.Errorf("fastcap_dist_epochs_total = %d, want 5", got)
	}
	if got := srv.Metrics.core.ArbitrationSeconds.Summary().Count(); got != 5 {
		t.Errorf("fastcap_dist_arbitration_seconds observed %d rounds, want 5", got)
	}
	if got := srv.Metrics.streams.Completed.Value(); got < 2 {
		t.Errorf("completed stream terminations = %d, want the record and the event stream", got)
	}
}

func getResult(t *testing.T, coordURL string) ClusterResult {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(coordURL + "/result")
		if err != nil {
			t.Fatalf("GET result: %v", err)
		}
		if resp.StatusCode == http.StatusOK {
			var res ClusterResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatalf("decode result: %v", err)
			}
			resp.Body.Close()
			return res
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("GET result: status %d", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDistHTTPAgentRestartRecovers kills the agent daemon mid-run and
// brings up a replacement with the same id and journal directory: the
// new agent replays the journaled grants, re-announces with its
// done-epoch count and is readmitted, and the cluster still drains to
// a complete result with every member epoch executed exactly once.
func TestDistHTTPAgentRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	ts, _, host := newDistServer(t, dir)

	resp := postJSON(t, ts.URL+"/dist/clusters",
		`{"id":"c1","budget_w":10,"expect":1,"epoch_deadline_ms":400,"grace_ms":5000,"join_timeout_ms":5000}`)
	wantStatus(t, resp, http.StatusCreated)
	coordURL := ts.URL + "/dist/clusters/c1"

	const total = 40
	resp = postJSON(t, ts.URL+"/dist/agents", fmt.Sprintf(
		`{"id":"a1","coordinator":%q,"members":[{"id":"m1","session":%s}]}`,
		coordURL, sessionSpec("MIX1", total)))
	wantStatus(t, resp, http.StatusCreated)

	// Let the run get under way, then crash the agent side without
	// detaching — exactly what a killed daemon looks like.
	waitForEpoch(t, coordURL, 3)
	host.Close()

	// The straggler deadline evicts m1; the replacement daemon loads the
	// journal (members omitted on purpose — the journal holds them),
	// replays, and re-announces as the same agent.
	time.Sleep(600 * time.Millisecond)
	ts2, _, _ := newDistServer(t, dir)
	resp = postJSON(t, ts2.URL+"/dist/agents", fmt.Sprintf(
		`{"id":"a1","coordinator":%q}`, coordURL))
	wantStatus(t, resp, http.StatusCreated)

	res := getResult(t, coordURL)
	if res.Error != "" {
		t.Fatalf("cluster finished with error %q", res.Error)
	}
	if len(res.Results) != 1 || res.Results[0].Result == nil {
		t.Fatalf("want one finished member result, got %+v", res.Results)
	}

	// Degradation shape: the eviction and the journal-recovered
	// readmission both happened, and no member epoch was reported twice
	// (replayed epochs are covered by the journal, not re-reported).
	var evicted, readmitted bool
	for _, line := range readStream(t, coordURL+"/events") {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		evicted = evicted || ev.Type == "evict"
		readmitted = readmitted || ev.Type == "readmit"
	}
	if !evicted || !readmitted {
		t.Fatalf("want an evict and a readmit event (evict=%v readmit=%v)", evicted, readmitted)
	}
	last := -1
	reported := 0
	for _, line := range readStream(t, coordURL+"/stream") {
		var rec cluster.EpochRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("record line %q: %v", line, err)
		}
		for _, mg := range rec.Members {
			if mg.Epoch <= last {
				t.Fatalf("member epoch %d reported after %d", mg.Epoch, last)
			}
			last = mg.Epoch
			reported++
		}
	}
	if last != total-1 {
		t.Fatalf("final reported member epoch %d, want %d", last, total-1)
	}
	if reported > total {
		t.Fatalf("%d reported member epochs for a %d-epoch member", reported, total)
	}
}

// waitForEpoch polls the cluster status until the coordinator's epoch
// counter reaches at least n.
func waitForEpoch(t *testing.T, coordURL string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(coordURL)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		var info ClusterInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode status: %v", err)
		}
		if info.Epoch >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cluster never reached epoch %d", n)
}

// TestDistHTTPRejectsHostileInput covers the service-level refusals:
// hostile frames get typed 400s, premature result reads 409, unknown
// ids 404 — never a panic or a hollow 200.
func TestDistHTTPRejectsHostileInput(t *testing.T) {
	ts, _, _ := newDistServer(t, "")

	resp := postJSON(t, ts.URL+"/dist/clusters", `{"id":"c1","budget_w":10,"expect":2}`)
	wantStatus(t, resp, http.StatusCreated)

	cases := []struct {
		name, url, body string
		want            int
	}{
		{"garbage frame", ts.URL + "/dist/clusters/c1/msgs", `{"type":"gra`, http.StatusBadRequest},
		{"unknown field", ts.URL + "/dist/clusters/c1/msgs", `{"type":"report","member":"m","agent":"a","surprise":1}`, http.StatusBadRequest},
		{"agentless frame", ts.URL + "/dist/clusters/c1/msgs", `{"type":"detach","member":"m"}`, http.StatusBadRequest},
		{"unknown cluster", ts.URL + "/dist/clusters/nope/msgs", `{"type":"heartbeat","agent":"a"}`, http.StatusNotFound},
		{"duplicate cluster id", ts.URL + "/dist/clusters", `{"id":"c1","budget_w":10,"expect":2}`, http.StatusConflict},
		{"bad budget", ts.URL + "/dist/clusters", `{"id":"c2","budget_w":-1,"expect":2}`, http.StatusBadRequest},
		{"bad arbiter", ts.URL + "/dist/clusters", `{"id":"c2","budget_w":10,"expect":2,"arbiter":"psychic"}`, http.StatusBadRequest},
		{"bad cluster id", ts.URL + "/dist/clusters", `{"id":"../../etc","budget_w":10,"expect":2}`, http.StatusBadRequest},
		{"agent without coordinator", ts.URL + "/dist/agents", `{"id":"a1"}`, http.StatusBadRequest},
		{"agent bad session", ts.URL + "/dist/agents", fmt.Sprintf(`{"id":"a1","coordinator":%q,"members":[{"id":"m1","session":{"mix":"NOPE","budget_frac":1}}]}`, ts.URL+"/dist/clusters/c1"), http.StatusBadRequest},
		{"agent recording session", ts.URL + "/dist/agents", fmt.Sprintf(`{"id":"a1","coordinator":%q,"members":[{"id":"m1","session":%s}]}`, ts.URL+"/dist/clusters/c1", `{"mix":"MIX1","budget_frac":1,"record":true}`), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postJSON(t, tc.url, tc.body)
		wantStatus(t, resp, tc.want)
	}

	resp, err := http.Get(ts.URL + "/dist/clusters/c1/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	wantStatus(t, resp, http.StatusConflict)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/dist/clusters/nope", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	defer dresp.Body.Close()
	wantStatus(t, dresp, http.StatusNotFound)
}

// do issues a bodiless request and returns the response (closed at
// cleanup).
func do(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// The control plane around the protocol: listing and inspecting
// clusters and agents, retargeting a hosted cluster, refusing malformed
// stream requests before any stream starts, and deleting — an agent
// DELETE withdraws its members with a detach the coordinator records, a
// cluster DELETE makes its routes 404.
func TestDistHTTPControlPlane(t *testing.T) {
	ts, _, _ := newDistServer(t, "")

	// Two expected members, only one ever announced: the cluster idles in
	// its gather phase while the control plane is exercised.
	resp := postJSON(t, ts.URL+"/dist/clusters", `{"budget_w":20,"expect":2,"join_timeout_ms":60000}`)
	wantStatus(t, resp, http.StatusCreated)
	var info ClusterInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || info.ID != "dc1" {
		t.Fatalf("created cluster %+v (%v), want generated id dc1", info, err)
	}
	coordURL := ts.URL + "/dist/clusters/dc1"

	resp = postJSON(t, ts.URL+"/dist/agents", fmt.Sprintf(
		`{"coordinator":%q,"members":[{"id":"m1","session":%s}]}`, coordURL, sessionSpec("MIX1", 4)))
	wantStatus(t, resp, http.StatusCreated)
	var ainfo AgentInfo
	if err := json.NewDecoder(resp.Body).Decode(&ainfo); err != nil || ainfo.ID != "ag1" {
		t.Fatalf("created agent %+v (%v), want generated id ag1", ainfo, err)
	}

	var clusters []ClusterInfo
	if err := json.NewDecoder(do(t, http.MethodGet, ts.URL+"/dist/clusters").Body).Decode(&clusters); err != nil || len(clusters) != 1 || clusters[0].ID != "dc1" {
		t.Errorf("cluster list %+v (%v), want [dc1]", clusters, err)
	}
	var agents []AgentInfo
	if err := json.NewDecoder(do(t, http.MethodGet, ts.URL+"/dist/agents").Body).Decode(&agents); err != nil || len(agents) != 1 || agents[0].Coordinator != coordURL {
		t.Errorf("agent list %+v (%v), want ag1 → %s", agents, err, coordURL)
	}
	wantStatus(t, do(t, http.MethodGet, ts.URL+"/dist/agents/ag1"), http.StatusOK)
	wantStatus(t, do(t, http.MethodGet, ts.URL+"/dist/agents/nope"), http.StatusNotFound)
	wantStatus(t, do(t, http.MethodDelete, ts.URL+"/dist/agents/nope"), http.StatusNotFound)

	wantStatus(t, postJSON(t, coordURL+"/budget", `{"budget_w":30}`), http.StatusOK)
	wantStatus(t, postJSON(t, coordURL+"/budget", `{"budget_w":-3}`), http.StatusBadRequest)
	wantStatus(t, postJSON(t, coordURL+"/budget", `{"budget":30}`), http.StatusBadRequest)
	if err := json.NewDecoder(do(t, http.MethodGet, coordURL).Body).Decode(&info); err != nil || info.BudgetW != 30 {
		t.Errorf("status after retarget %+v (%v), want budget 30 W", info, err)
	}

	// Malformed stream requests are refused with a status, not a stream.
	wantStatus(t, do(t, http.MethodGet, coordURL+"/feed"), http.StatusBadRequest)
	wantStatus(t, do(t, http.MethodGet, coordURL+"/stream?from=minus-one"), http.StatusBadRequest)
	wantStatus(t, do(t, http.MethodGet, coordURL+"/events?from=-1"), http.StatusBadRequest)

	// Wait for the announce to land, then delete the agent: its member
	// withdraws with a detach the coordinator records.
	memberState := func() string {
		var ci ClusterInfo
		if err := json.NewDecoder(do(t, http.MethodGet, coordURL).Body).Decode(&ci); err != nil {
			t.Fatal(err)
		}
		if len(ci.Members) == 0 {
			return ""
		}
		return ci.Members[0].State
	}
	waitFor := func(state string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for memberState() != state {
			if time.Now().After(deadline) {
				t.Fatalf("member state %q, want %q", memberState(), state)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("pending")
	wantStatus(t, do(t, http.MethodDelete, ts.URL+"/dist/agents/ag1"), http.StatusNoContent)
	waitFor("detached")

	wantStatus(t, do(t, http.MethodDelete, coordURL), http.StatusNoContent)
	wantStatus(t, do(t, http.MethodGet, coordURL), http.StatusNotFound)
	wantStatus(t, do(t, http.MethodGet, coordURL+"/stream"), http.StatusNotFound)
}
