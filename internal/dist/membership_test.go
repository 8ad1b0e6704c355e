package dist_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// An orderly withdrawal and a live retarget, mid-run: the detaching
// member leaves the barrier at once (no eviction, no straggler wait),
// its model state is forgotten, the watts it was granted for the epoch
// it left still count in that epoch's GrantedW, and a budget set during
// epoch 3 is the budget of epoch 4.
func TestDistDetachAndRetarget(t *testing.T) {
	fixture := []fixtureMember{
		{"keep", "a1", testSpec{Mix: "MIX1", Cores: 4, Epochs: 6, Policy: "fastcap"}},
		{"leave", "a2", testSpec{Mix: "MEM2", Cores: 4, Epochs: 6, Policy: "fastcap"}},
	}
	budget := 0.7 * sumPeaks(t, fixture)
	spy := &forgetSpy{PredictiveArbiter: cluster.NewPredictiveArbiter()}
	coord, err := runDist(t, distRun{
		fixture: fixture, seed: 11,
		arbiter: func() cluster.Arbiter { return spy },
		intercept: func(coord *dist.Coordinator, agent string, a *dist.Agent, m dist.Msg) bool {
			switch {
			case agent == "a2" && m.Type == dist.TypeGrant && m.Epoch == 2:
				a.Detach() // instead of running the epoch
				return true
			case agent == "a1" && m.Type == dist.TypeGrant && m.Epoch == 3:
				if err := coord.SetBudgetW(-1); !errors.Is(err, runner.ErrInvalidConfig) {
					t.Errorf("negative budget: %v, want ErrInvalidConfig", err)
				}
				if err := coord.SetBudgetW(0.5 * budget); err != nil {
					t.Errorf("retarget: %v", err)
				}
			}
			return false
		},
	})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}

	var detached bool
	for _, ev := range coord.Events() {
		switch {
		case ev.Type == "detach" && ev.Member == "leave" && ev.Epoch == 2:
			detached = true
		case ev.Type != "join":
			t.Errorf("unexpected event %+v", ev)
		}
	}
	if !detached {
		t.Fatalf("no detach event for the withdrawn member: %+v", coord.Events())
	}
	if !spy.forgot("leave") {
		t.Error("the detached member's predictor history was never forgotten")
	}

	recs := coord.Records()
	if len(recs) != 6 {
		t.Fatalf("got %d records, want the survivor's 6 epochs", len(recs))
	}
	for e, rec := range recs {
		wantLines := 2
		if e >= 2 {
			wantLines = 1
		}
		if len(rec.Members) != wantLines {
			t.Errorf("epoch %d has %d member lines, want %d", e, len(rec.Members), wantLines)
		}
		wantBudget := budget
		if e >= 4 {
			wantBudget = 0.5 * budget
		}
		if rec.BudgetW != wantBudget {
			t.Errorf("epoch %d arbitrated %v W, want %v W", e, rec.BudgetW, wantBudget)
		}
	}
	if keep := recs[2].Members[0]; !(recs[2].GrantedW > keep.GrantW) {
		t.Errorf("epoch 2 GrantedW %v W does not include the grant pushed to the member that left (survivor holds %v W)",
			recs[2].GrantedW, keep.GrantW)
	}
	if got := recs[3].GrantedW; got != recs[3].Members[0].GrantW {
		t.Errorf("epoch 3 GrantedW %v W, want the lone survivor's %v W", got, recs[3].Members[0].GrantW)
	}
	st := coord.Status()
	if len(st.Members) != 2 || st.Members[1].State != "detached" || st.Members[0].State != "done" || !st.Finished {
		t.Errorf("final status %+v, want keep done, leave detached, finished", st)
	}
}

// Agent heartbeats are liveness only: a fleet that sends them produces
// the byte-identical record stream of one that does not, and the
// coordinator counts what it received.
func TestDistHeartbeatsAreLivenessOnly(t *testing.T) {
	quiet, err := runDist(t, distRun{fixture: chaosFixture(), seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	beating, err := runDist(t, distRun{
		fixture: chaosFixture(), seed: 21, heartbeatNs: 3e5,
		cfg: dist.Config{Metrics: dist.NewMetrics(reg)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, quiet.Records()), mustJSON(t, beating.Records())) {
		t.Error("heartbeats changed the record stream")
	}
	if n := seriesValue(t, reg, "fastcap_dist_heartbeats_total"); n == 0 {
		t.Error("no heartbeat reached the coordinator")
	}
	if n := seriesValue(t, reg, `fastcap_dist_events_total{type="join"}`); n != float64(len(chaosFixture())) {
		t.Errorf("%v join events counted, want %d", n, len(chaosFixture()))
	}
}

// An agent that crashes after stepping its member's last epoch — report
// lost, journal complete — comes back with nothing left to run: it
// announces the member as finished and forwards the result, and the
// coordinator retires the member at the boundary instead of granting it
// again.
func TestDistAgentRecoversFinishedJournal(t *testing.T) {
	fixture := []fixtureMember{
		{"long", "a1", testSpec{Mix: "MIX1", Cores: 4, Epochs: 6, Policy: "fastcap"}},
		{"short", "a2", testSpec{Mix: "MEM2", Cores: 4, Epochs: 3, Policy: "fastcap"}},
	}
	coord, err := runDist(t, distRun{
		fixture: fixture, seed: 4,
		faults: dist.Faults{Restarts: []dist.Restart{{Agent: "a2", Epoch: 2, AfterStep: true, RestartAfterNs: 2e9}}},
	})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	var evicted, retired bool
	for _, ev := range coord.Events() {
		if ev.Member != "short" {
			continue
		}
		switch ev.Type {
		case "evict":
			evicted = true
		case "readmit":
			retired = ev.Reason == "already finished"
		}
	}
	if !evicted || !retired {
		t.Errorf("events %+v: want short evicted, then readmitted as already finished", coord.Events())
	}
	for _, rec := range coord.Records() {
		for _, l := range rec.Members {
			if l.ID == "short" && l.Epoch > 1 {
				t.Errorf("cluster epoch %d carries short's local epoch %d: its lost last epoch must not be re-run", rec.Epoch, l.Epoch)
			}
		}
	}
	for _, mr := range coord.Results() {
		if mr.Result == nil {
			t.Errorf("member %s has no result", mr.ID)
		} else if mr.ID == "short" && len(mr.Result.Epochs) != 3 {
			t.Errorf("short's recovered result covers %d epochs, want 3", len(mr.Result.Epochs))
		}
	}
}
