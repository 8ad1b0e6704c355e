package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/serve"
)

// quickMember wraps a small session request as a cluster member.
func quickMember(id, mix string, cores, epochs int) serve.ClusterMemberRequest {
	return serve.ClusterMemberRequest{
		ID:      id,
		Session: quickReq(mix, cores, epochs, 0.6),
	}
}

// collectCluster drains a group's stream through ClusterNext and
// returns every record, then the finalized results.
func collectCluster(t *testing.T, m *serve.Manager, id string) ([]cluster.EpochRecord, []cluster.MemberResult) {
	t.Helper()
	var recs []cluster.EpochRecord
	for cursor := 0; ; cursor++ {
		rec, err := m.ClusterNext(context.Background(), id, cursor)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("ClusterNext(%s, %d): %v", id, cursor, err)
		}
		recs = append(recs, rec)
	}
	res, err := m.ClusterResult(id)
	if err != nil {
		t.Fatalf("ClusterResult(%s): %v", id, err)
	}
	return recs, res
}

// The serve-level golden test: a cluster group stepped by the manager
// pool (interleaved with an unrelated solo session) must produce a
// grant stream and member results byte-identical to driving the same
// configurations through a cluster.Coordinator directly — the service
// adds scheduling, never behavior.
func TestClusterGroupMatchesDirectCoordinator(t *testing.T) {
	req := serve.ClusterRequest{
		BudgetFrac: 0.65,
		Arbiter:    "slack",
		Members: []serve.ClusterMemberRequest{
			quickMember("ilp", "ILP1", 8, 6),
			quickMember("mem", "MEM3", 8, 6),
			quickMember("mix", "MIX2", 4, 4),
		},
	}

	// Direct run: identical sessions, identical budget resolution.
	var members []cluster.Member
	peaks := 0.0
	for _, mr := range req.Members {
		cfg, err := mr.Session.Config()
		if err != nil {
			t.Fatal(err)
		}
		ses, err := runner.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		peaks += ses.PeakPowerW()
		members = append(members, cluster.Member{ID: mr.ID, Session: ses})
	}
	direct, err := cluster.New(cluster.Config{
		BudgetW: req.BudgetFrac * peaks,
		Arbiter: cluster.NewSlackReclaim(),
		Workers: 2,
	}, members)
	if err != nil {
		t.Fatal(err)
	}
	var directRecs []cluster.EpochRecord
	for {
		rec, err := direct.Step(context.Background())
		if errors.Is(err, cluster.ErrDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		directRecs = append(directRecs, rec)
	}
	directResults := direct.Results()

	// Served run, with a solo session sharing the pool.
	m := serve.NewManager(serve.Options{Workers: 2, MaxSessions: 8})
	defer m.Shutdown(context.Background())
	if _, err := m.Create(quickReq("MID1", 4, 6, 0.7)); err != nil {
		t.Fatal(err)
	}
	st, err := m.CreateCluster(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() {
		t.Fatalf("group born terminal (%s)", st.State)
	}
	if st.Arbiter != "slack" || len(st.Members) != 3 {
		t.Errorf("create status arbiter=%q members=%d, want slack/3", st.Arbiter, len(st.Members))
	}
	servedRecs, servedResults := collectCluster(t, m, st.ID)

	if got, want := mustJSON(t, servedRecs), mustJSON(t, directRecs); !bytes.Equal(got, want) {
		t.Error("served grant stream diverged from the direct coordinator run")
	}
	if got, want := mustJSON(t, servedResults), mustJSON(t, directResults); !bytes.Equal(got, want) {
		t.Error("served member results diverged from the direct coordinator run")
	}
}

// Admission control counts cluster members: a group may not push the
// resident load above MaxSessions, and deleting the group frees every
// member slot.
func TestClusterMembersCountAgainstMaxSessions(t *testing.T) {
	m := serve.NewManager(serve.Options{Workers: 1, MaxSessions: 3})
	defer m.Shutdown(context.Background())

	if _, err := m.CreateCluster(serve.ClusterRequest{
		BudgetFrac: 0.6,
		Members: []serve.ClusterMemberRequest{
			quickMember("a", "MIX3", 4, 2), quickMember("b", "MID1", 4, 2),
			quickMember("c", "MEM2", 4, 2), quickMember("d", "MIX1", 4, 2),
		},
	}); !errors.Is(err, serve.ErrTooManySessions) {
		t.Fatalf("4-member group into a 3-session manager: %v, want ErrTooManySessions", err)
	}

	st, err := m.CreateCluster(serve.ClusterRequest{
		BudgetFrac: 0.6,
		Members:    []serve.ClusterMemberRequest{quickMember("a", "MIX3", 4, 10_000), quickMember("b", "MID1", 4, 10_000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := m.Create(quickReq("MIX3", 4, 10_000, 0.6))
	if err != nil {
		t.Fatal(err) // third slot: fine
	}
	// The long tenants only hold slots; drop the solo one once the
	// counting is done, or Shutdown's drain steps it to completion.
	defer m.Close(solo.ID)
	if _, err := m.Create(quickReq("MID2", 4, 2, 0.6)); !errors.Is(err, serve.ErrTooManySessions) {
		t.Errorf("fourth resident: %v, want ErrTooManySessions", err)
	}
	if got := m.Count(); got != 3 {
		t.Errorf("Count %d, want 3 (two members + one solo)", got)
	}
	if err := m.CloseCluster(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(quickReq("MID2", 4, 2, 0.6)); err != nil {
		t.Errorf("create after closing the group: %v", err)
	}
}

// The cluster-create validation table: malformed groups are refused
// typed, with no group (or member session) left resident.
func TestClusterCreateValidationTable(t *testing.T) {
	m := serve.NewManager(serve.Options{Workers: 1, MaxSessions: 8})
	defer m.Shutdown(context.Background())

	good := func() serve.ClusterRequest {
		return serve.ClusterRequest{
			BudgetW: 80,
			Members: []serve.ClusterMemberRequest{quickMember("a", "MIX3", 4, 2), quickMember("b", "MID1", 4, 2)},
		}
	}
	cases := []struct {
		name   string
		mutate func(*serve.ClusterRequest)
	}{
		{"no budget", func(r *serve.ClusterRequest) { r.BudgetW = 0 }},
		{"both budgets", func(r *serve.ClusterRequest) { r.BudgetFrac = 0.5 }},
		{"negative budget", func(r *serve.ClusterRequest) { r.BudgetW = -10 }},
		{"budget fraction above one", func(r *serve.ClusterRequest) { r.BudgetW = 0; r.BudgetFrac = 1.2 }},
		{"negative budget fraction", func(r *serve.ClusterRequest) { r.BudgetW = 0; r.BudgetFrac = -0.5 }},
		{"unknown arbiter", func(r *serve.ClusterRequest) { r.Arbiter = "chaos" }},
		{"no members", func(r *serve.ClusterRequest) { r.Members = nil }},
		{"duplicate member ids", func(r *serve.ClusterRequest) { r.Members[1].ID = "a" }},
		{"negative weight", func(r *serve.ClusterRequest) { r.Members[0].Weight = -2 }},
		{"floor above one", func(r *serve.ClusterRequest) { r.Members[0].FloorFrac = 1.4 }},
		{"recording member", func(r *serve.ClusterRequest) { r.Members[0].Session.Record = true }},
		{"unknown member mix", func(r *serve.ClusterRequest) { r.Members[0].Session.Mix = "NOPE" }},
		{"member budget out of range", func(r *serve.ClusterRequest) { r.Members[0].Session.BudgetFrac = 7 }},
		{"member cores above limit", func(r *serve.ClusterRequest) { r.Members[0].Session.Cores = 2 * serve.MaxCores }},
	}
	for _, tc := range cases {
		req := good()
		tc.mutate(&req)
		if _, err := m.CreateCluster(req); !errors.Is(err, runner.ErrInvalidConfig) {
			t.Errorf("%s: CreateCluster error %v, want ErrInvalidConfig", tc.name, err)
		}
	}
	if got := len(m.ListClusters()); got != 0 {
		t.Errorf("%d groups resident after rejected creates, want 0", got)
	}
	if got := m.Count(); got != 0 {
		t.Errorf("resident load %d after rejected creates, want 0", got)
	}
}

// Live global retargets land at the next epoch boundary; invalid watts
// and terminal groups are refused typed.
func TestClusterBudgetRetarget(t *testing.T) {
	m := serve.NewManager(serve.Options{Workers: 1, MaxSessions: 4})
	defer m.Shutdown(context.Background())

	st, err := m.CreateCluster(serve.ClusterRequest{
		BudgetW: 60,
		Members: []serve.ClusterMemberRequest{quickMember("a", "MIX3", 4, 5_000), quickMember("b", "MID1", 4, 5_000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetClusterBudget(st.ID, -3); !errors.Is(err, runner.ErrInvalidConfig) {
		t.Errorf("negative retarget: %v, want ErrInvalidConfig", err)
	}
	if err := m.SetClusterBudget(st.ID, 45); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for cursor := 0; ; cursor++ {
		select {
		case <-deadline:
			t.Fatal("no epoch picked up the retargeted global budget")
		default:
		}
		rec, err := m.ClusterNext(context.Background(), st.ID, cursor)
		if err != nil {
			t.Fatalf("stream ended before the retarget landed: %v", err)
		}
		if rec.BudgetW == 45 {
			break
		}
	}
	if err := m.CloseCluster(st.ID); err != nil {
		t.Fatal(err)
	}

	// Terminal group: retarget refused.
	done, err := m.CreateCluster(serve.ClusterRequest{
		BudgetW: 60,
		Members: []serve.ClusterMemberRequest{quickMember("a", "MIX3", 4, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	collectCluster(t, m, done.ID)
	if err := m.SetClusterBudget(done.ID, 50); !errors.Is(err, serve.ErrFinished) {
		t.Errorf("retarget of a done group: %v, want ErrFinished", err)
	}
}

// A group that has streamed its whole horizon is refused retargets even
// if caught before the settling turn latches it terminal — the hollow
// 200 would otherwise accept a budget with no boundary left to land on.
// (Both interleavings — settled or still queued — must answer
// ErrFinished, so the assertion is race-free.)
func TestClusterBudgetRetargetAfterLastEpoch(t *testing.T) {
	m := serve.NewManager(serve.Options{Workers: 1, MaxSessions: 4})
	defer m.Shutdown(context.Background())

	// A long solo session keeps the single worker busy between the
	// group's turns, widening the stepped-but-not-settled window. Close
	// it before the deferred drain, which would otherwise wait it out.
	solo, err := m.Create(quickReq("MID1", 4, 10_000, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(solo.ID)
	st, err := m.CreateCluster(serve.ClusterRequest{
		BudgetW: 60,
		Members: []serve.ClusterMemberRequest{quickMember("a", "MIX3", 4, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the final epoch's record — the horizon is fully stepped
	// the moment it exists, whether or not the group settled yet.
	if _, err := m.ClusterNext(context.Background(), st.ID, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.SetClusterBudget(st.ID, 45); !errors.Is(err, serve.ErrFinished) {
		t.Errorf("retarget after the last epoch: %v, want ErrFinished", err)
	}
}

// Attach grows a live group (and the admission load); detach removes a
// member at the next boundary while keeping its prefix result; both
// fail typed on unknown targets and terminal groups.
func TestClusterAttachDetach(t *testing.T) {
	m := serve.NewManager(serve.Options{Workers: 1, MaxSessions: 4})
	defer m.Shutdown(context.Background())

	st, err := m.CreateCluster(serve.ClusterRequest{
		BudgetW: 90,
		Members: []serve.ClusterMemberRequest{quickMember("a", "MIX3", 4, 40), quickMember("b", "MID1", 4, 40)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AttachMember(st.ID, serve.ClusterMemberRequest{Session: quickReq("MEM2", 4, 30, 0.6)}); !errors.Is(err, runner.ErrInvalidConfig) {
		t.Errorf("attach without id: %v, want ErrInvalidConfig", err)
	}
	at, err := m.AttachMember(st.ID, quickMember("late", "MEM2", 4, 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(at.Members) != 3 {
		t.Errorf("status after attach lists %d members, want 3", len(at.Members))
	}
	if _, err := m.AttachMember(st.ID, quickMember("late", "MEM2", 4, 30)); !errors.Is(err, runner.ErrInvalidConfig) {
		t.Errorf("duplicate attach: %v, want ErrInvalidConfig", err)
	}
	if got := m.Count(); got != 3 {
		t.Errorf("Count %d after attach, want 3", got)
	}
	// The attached member joins the stream at the next boundary.
	deadline := time.After(30 * time.Second)
	for cursor := 0; ; cursor++ {
		select {
		case <-deadline:
			t.Fatal("attached member never appeared in the stream")
		default:
		}
		rec, err := m.ClusterNext(context.Background(), st.ID, cursor)
		if err != nil {
			t.Fatalf("stream ended before the attach landed: %v", err)
		}
		found := false
		for _, mg := range rec.Members {
			if mg.ID == "late" {
				found = true
			}
		}
		if found {
			break
		}
	}
	if err := m.DetachMember(st.ID, "nope"); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("detach unknown member: %v, want ErrNotFound", err)
	}
	if err := m.DetachMember(st.ID, "b"); err != nil {
		t.Fatal(err)
	}
	// b leaves the stream at the next boundary.
	deadline = time.After(30 * time.Second)
	for cursor := 0; ; cursor++ {
		select {
		case <-deadline:
			t.Fatal("detached member never left the stream")
		default:
		}
		rec, err := m.ClusterNext(context.Background(), st.ID, cursor)
		if err != nil {
			t.Fatalf("stream ended before the detach landed: %v", err)
		}
		found := false
		for _, mg := range rec.Members {
			if mg.ID == "b" {
				found = true
			}
		}
		if !found {
			break
		}
	}
	if err := m.CloseCluster(st.ID); err != nil {
		t.Fatal(err)
	}
}

// Shutdown drains groups: naturally with a live context, by epoch-
// boundary cancellation when the deadline expires; prefix results
// survive either way.
func TestClusterShutdownDrain(t *testing.T) {
	m := serve.NewManager(serve.Options{Workers: 2, MaxSessions: 4})
	st, err := m.CreateCluster(serve.ClusterRequest{
		BudgetW: 60,
		Members: []serve.ClusterMemberRequest{quickMember("a", "MIX3", 4, 3), quickMember("b", "MID1", 4, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("natural drain returned %v", err)
	}
	got, err := m.ClusterStatus(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != serve.StateDone || got.EpochsDone != 3 {
		t.Errorf("drained group state %s after %d epochs, want done after 3", got.State, got.EpochsDone)
	}
	if _, err := m.CreateCluster(serve.ClusterRequest{
		BudgetW: 60, Members: []serve.ClusterMemberRequest{quickMember("a", "MIX3", 4, 2)},
	}); !errors.Is(err, serve.ErrDraining) {
		t.Errorf("create after shutdown: %v, want ErrDraining", err)
	}

	m2 := serve.NewManager(serve.Options{Workers: 1, MaxSessions: 4})
	st2, err := m2.CreateCluster(serve.ClusterRequest{
		BudgetW: 60,
		Members: []serve.ClusterMemberRequest{quickMember("a", "MIX3", 4, serve.MaxEpochs)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m2.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
	got2, err := m2.ClusterStatus(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got2.State != serve.StateCanceled {
		t.Errorf("straggler group state %s, want canceled", got2.State)
	}
	if _, err := m2.ClusterResult(st2.ID); err != nil {
		t.Errorf("prefix results unavailable after forced drain: %v", err)
	}
}

// Unknown group ids fail typed on every manager surface.
func TestClusterUnknownIDTypedErrors(t *testing.T) {
	m := serve.NewManager(serve.Options{Workers: 1})
	defer m.Shutdown(context.Background())

	if _, err := m.ClusterStatus("nope"); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("ClusterStatus: %v", err)
	}
	if _, err := m.ClusterNext(context.Background(), "nope", 0); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("ClusterNext: %v", err)
	}
	if _, err := m.ClusterResult("nope"); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("ClusterResult: %v", err)
	}
	if err := m.SetClusterBudget("nope", 50); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("SetClusterBudget: %v", err)
	}
	if _, err := m.AttachMember("nope", quickMember("x", "MIX3", 4, 2)); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("AttachMember: %v", err)
	}
	if err := m.DetachMember("nope", "x"); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("DetachMember: %v", err)
	}
	if err := m.CloseCluster("nope"); !errors.Is(err, serve.ErrNotFound) {
		t.Errorf("CloseCluster: %v", err)
	}
	// A live group refuses results typed, and a negative cursor is a
	// config error.
	st, err := m.CreateCluster(serve.ClusterRequest{
		BudgetW: 60, Members: []serve.ClusterMemberRequest{quickMember("a", "MIX3", 4, 10_000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ClusterResult(st.ID); !errors.Is(err, serve.ErrNotFinished) {
		t.Errorf("live result: %v, want ErrNotFinished", err)
	}
	if _, err := m.ClusterNext(context.Background(), st.ID, -1); !errors.Is(err, runner.ErrInvalidConfig) {
		t.Errorf("negative cursor: %v, want ErrInvalidConfig", err)
	}
	if err := m.CloseCluster(st.ID); err != nil {
		t.Fatal(err)
	}
}

// The HTTP surface end to end: create, status, stream, retarget,
// attach, detach, result, delete — with typed errors mapped to status
// codes.
func TestClusterHTTPEndToEnd(t *testing.T) {
	m := serve.NewManager(serve.Options{Workers: 2, MaxSessions: 6})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(serve.NewHandler(m))
	defer srv.Close()

	post := func(path, body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(b)
	}
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(b)
	}
	del := func(path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Malformed creates map to 4xx.
	for name, tc := range map[string]struct {
		body string
		code int
	}{
		"no budget":      {`{"members":[{"session":{"mix":"MIX3","budget_frac":0.6}}]}`, http.StatusBadRequest},
		"bad arbiter":    {`{"budget_w":50,"arbiter":"chaos","members":[{"session":{"mix":"MIX3","budget_frac":0.6}}]}`, http.StatusBadRequest},
		"duplicate ids":  {`{"budget_w":50,"members":[{"id":"a","session":{"mix":"MIX3","budget_frac":0.6}},{"id":"a","session":{"mix":"MID1","budget_frac":0.6}}]}`, http.StatusBadRequest},
		"unknown field":  {`{"budget_w":50,"surprise":1,"members":[{"session":{"mix":"MIX3","budget_frac":0.6}}]}`, http.StatusBadRequest},
		"not even json":  {`{"budget_w":`, http.StatusBadRequest},
		"too many":       {`{"budget_w":50,"members":[{"session":{"mix":"MIX3","budget_frac":0.6}},{"session":{"mix":"MIX3","budget_frac":0.6}},{"session":{"mix":"MIX3","budget_frac":0.6}},{"session":{"mix":"MIX3","budget_frac":0.6}},{"session":{"mix":"MIX3","budget_frac":0.6}},{"session":{"mix":"MIX3","budget_frac":0.6}},{"session":{"mix":"MIX3","budget_frac":0.6}}]}`, http.StatusTooManyRequests},
		"member rejects": {`{"budget_w":50,"members":[{"session":{"mix":"MIX3","budget_frac":0.6,"cores":-4}}]}`, http.StatusBadRequest},
	} {
		resp, body := post("/clusters", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d (%s), want %d", name, resp.StatusCode, body, tc.code)
		}
	}

	// A good create.
	resp, body := post("/clusters", `{"budget_frac":0.6,"arbiter":"slack","members":[
		{"id":"ilp","session":{"mix":"ILP1","budget_frac":0.6,"cores":4,"epochs":6,"epoch_ms":0.5}},
		{"id":"mem","session":{"mix":"MEM2","budget_frac":0.6,"cores":4,"epochs":4,"epoch_ms":0.5}}]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d (%s)", resp.StatusCode, body)
	}
	var st serve.ClusterStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/clusters/"+st.ID {
		t.Errorf("Location %q, want /clusters/%s", loc, st.ID)
	}

	if resp, _ := post("/clusters/nope/budget", `{"budget_w":40}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("retarget unknown: %d", resp.StatusCode)
	}

	// Stream to the end: every line parses as a cluster record; the
	// stream is 6 epochs (the longest member).
	resp, body = get("/clusters/" + st.ID + "/stream")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	var lines []string
	for _, ln := range strings.Split(strings.TrimSpace(body), "\n") {
		if isHeartbeatLine([]byte(ln)) {
			continue // keepalives are not epoch records
		}
		lines = append(lines, ln)
	}
	if len(lines) != 6 {
		t.Errorf("stream has %d lines, want 6", len(lines))
	}
	for i, ln := range lines {
		var rec cluster.EpochRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("stream line %d: %v", i, err)
		}
		if rec.Epoch != i {
			t.Errorf("stream line %d has epoch %d", i, rec.Epoch)
		}
	}
	if resp, _ := get("/clusters/" + st.ID + "/stream?from=-1"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative from: %d", resp.StatusCode)
	}

	// Terminal: result serves per-member aggregates; late retarget 409;
	// attach 409.
	resp, body = get("/clusters/" + st.ID + "/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d (%s)", resp.StatusCode, body)
	}
	var results []cluster.MemberResult
	if err := json.Unmarshal([]byte(body), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].ID != "ilp" || len(results[0].Result.Epochs) != 6 {
		t.Errorf("unexpected results shape: %d members", len(results))
	}
	if resp, _ := post("/clusters/"+st.ID+"/budget", `{"budget_w":40}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("terminal retarget: %d, want 409", resp.StatusCode)
	}
	if resp, _ := post("/clusters/"+st.ID+"/members", `{"id":"x","session":{"mix":"MIX3","budget_frac":0.6}}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("terminal attach: %d, want 409", resp.StatusCode)
	}
	if resp := del("/clusters/" + st.ID + "/members/ilp"); resp.StatusCode != http.StatusConflict {
		t.Errorf("terminal detach: %d, want 409", resp.StatusCode)
	}

	// Delete; everything 404s afterwards.
	if resp := del("/clusters/" + st.ID); resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete: %d", resp.StatusCode)
	}
	if resp, _ := get("/clusters/" + st.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("status after delete: %d", resp.StatusCode)
	}
	if resp := del("/clusters/" + st.ID); resp.StatusCode != http.StatusNotFound {
		t.Errorf("double delete: %d", resp.StatusCode)
	}

	// Attach/detach on a live group over HTTP.
	resp, body = post("/clusters", `{"budget_w":80,"members":[
		{"id":"a","session":{"mix":"MIX3","budget_frac":0.6,"cores":4,"epochs":2000,"epoch_ms":0.5}}]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second create: %d (%s)", resp.StatusCode, body)
	}
	var st2 serve.ClusterStatus
	if err := json.Unmarshal([]byte(body), &st2); err != nil {
		t.Fatal(err)
	}
	// Retargets against the long-lived group: bad body 400, good 200.
	if resp, _ := post("/clusters/"+st2.ID+"/budget", `{"budget_w":-4}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad retarget: %d", resp.StatusCode)
	}
	if resp, _ := post("/clusters/"+st2.ID+"/budget", `{"budget_w":40}`); resp.StatusCode != http.StatusOK {
		t.Errorf("good retarget: %d", resp.StatusCode)
	}
	if resp, body := post("/clusters/"+st2.ID+"/members", `{"id":"late","session":{"mix":"MEM2","budget_frac":0.6,"cores":4,"epochs":2000,"epoch_ms":0.5}}`); resp.StatusCode != http.StatusOK {
		t.Errorf("attach: %d (%s)", resp.StatusCode, body)
	}
	if resp, _ := post("/clusters/"+st2.ID+"/members", `{"id":"late","session":{"mix":"MEM2","budget_frac":0.6}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate attach: %d, want 400", resp.StatusCode)
	}
	if resp := del("/clusters/" + st2.ID + "/members/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("detach unknown: %d, want 404", resp.StatusCode)
	}
	if resp := del("/clusters/" + st2.ID + "/members/a"); resp.StatusCode != http.StatusNoContent {
		t.Errorf("detach: %d, want 204", resp.StatusCode)
	}
	if resp := del("/clusters/" + st2.ID); resp.StatusCode != http.StatusNoContent {
		t.Errorf("cleanup delete: %d", resp.StatusCode)
	}

	// The list endpoint names live groups.
	resp, body = get("/clusters")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("list: %d", resp.StatusCode)
	}
	var list []serve.ClusterStatus
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Errorf("%d groups listed after deletes, want 0", len(list))
	}
}
