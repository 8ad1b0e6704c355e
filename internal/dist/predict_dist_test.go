package dist_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
)

// forgetSpy wraps the predictive arbiter and records every Forget call
// the coordinator makes, delegating to the real model. Embedding
// promotes Name and Rebalance, so the wrapper is a cluster.Arbiter whose
// only override is Forget.
type forgetSpy struct {
	*cluster.PredictiveArbiter
	forgets []string
}

func (s *forgetSpy) Forget(id string) {
	s.forgets = append(s.forgets, id)
	s.PredictiveArbiter.Forget(id)
}

func (s *forgetSpy) forgot(id string) bool {
	for _, f := range s.forgets {
		if f == id {
			return true
		}
	}
	return false
}

// The predictive arbiter works unchanged over the wire: the fault-free
// 8-member fixture through SimNet is byte-identical to the in-process
// Coordinator — forecaster state and all.
func TestDistPredictiveGoldenMatchesInProcess(t *testing.T) {
	wantRecs, wantResults := runInProcess(t, goldenFixture(), cluster.NewPredictiveArbiter())

	coord, err := runDist(t, distRun{
		fixture: goldenFixture(), seed: 1,
		arbiter: func() cluster.Arbiter { return cluster.NewPredictiveArbiter() },
	})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if got, want := mustJSON(t, coord.Records()), mustJSON(t, wantRecs); !bytes.Equal(got, want) {
		t.Errorf("distributed predictive records diverged from in-process\n got: %.400s\nwant: %.400s", got, want)
	}
	if got, want := mustJSON(t, coord.Results()), mustJSON(t, wantResults); !bytes.Equal(got, want) {
		t.Errorf("distributed predictive results diverged from in-process\n got: %.400s\nwant: %.400s", got, want)
	}
}

// Evict → readmit must restart the member's forecaster cold: the
// coordinator calls Forget at eviction (the spy proves it), and the
// readmitted member rejoins with Warm == false, which forces the
// explicit model reset in the arbiter. Run twice, the whole degraded
// run stays byte-identical — the reset is part of the deterministic
// stream, not a side effect.
func TestDistPredictiveEvictReadmitRestartsModelCold(t *testing.T) {
	run := func() (*dist.Coordinator, *forgetSpy) {
		spy := &forgetSpy{PredictiveArbiter: cluster.NewPredictiveArbiter()}
		coord, err := runDist(t, distRun{
			fixture: chaosFixture(), seed: 15,
			arbiter: func() cluster.Arbiter { return spy },
			faults:  dist.Faults{Restarts: []dist.Restart{{Agent: "a1", Epoch: 2, RestartAfterNs: 3e9}}},
			cfg:     dist.Config{MaxEpochs: 300},
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return coord, spy
	}

	coord, spy := run()
	checkDegradation(t, chaosFixture(), coord.Records(), coord.Events())
	var sawReadmit bool
	for _, ev := range coord.Events() {
		switch ev.Type {
		case "evict":
			if !spy.forgot(ev.Member) {
				t.Errorf("member %q evicted at epoch %d but its predictor history was never forgotten", ev.Member, ev.Epoch)
			}
		case "readmit":
			sawReadmit = true
		}
	}
	if !sawReadmit {
		t.Fatalf("restart schedule produced no readmission: %+v", coord.Events())
	}

	first := [3][]byte{mustJSON(t, coord.Records()), mustJSON(t, coord.Events()), mustJSON(t, coord.Results())}
	coord2, _ := run()
	second := [3][]byte{mustJSON(t, coord2.Records()), mustJSON(t, coord2.Events()), mustJSON(t, coord2.Results())}
	for i, name := range []string{"records", "events", "results"} {
		if !bytes.Equal(first[i], second[i]) {
			t.Errorf("%s diverged between two predictive evict/readmit runs", name)
		}
	}
}

// Regression: the abandon path must drop predictor (and SLO) state just
// like evict and detach do. An agent that dies for good gets its
// members evicted mid-run and abandoned at the end; every one of them
// must reach Forget.
func TestDistPredictiveForgetOnAbandon(t *testing.T) {
	spy := &forgetSpy{PredictiveArbiter: cluster.NewPredictiveArbiter()}
	coord, err := runDist(t, distRun{
		fixture: chaosFixture(), seed: 18,
		arbiter: func() cluster.Arbiter { return spy },
		faults:  dist.Faults{Restarts: []dist.Restart{{Agent: "a2", Epoch: 1}}},
		cfg:     dist.Config{MaxEpochs: 300},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var abandoned int
	for _, ev := range coord.Events() {
		if ev.Type == "abandon" {
			abandoned++
			if !spy.forgot(ev.Member) {
				t.Errorf("member %q abandoned at epoch %d but its predictor history was never forgotten", ev.Member, ev.Epoch)
			}
		}
	}
	if abandoned == 0 {
		t.Fatalf("dead-agent schedule abandoned nobody: %+v", coord.Events())
	}
}
