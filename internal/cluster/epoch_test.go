package cluster_test

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
)

// forgetLog is the slack arbiter plus a record of every Forget call.
type forgetLog struct {
	*cluster.SlackReclaim
	forgot []string
}

func (a *forgetLog) Forget(id string) { a.forgot = append(a.forgot, id) }

// The epoch core alone, driven by hand-made reports — no session, no
// transport: a member that never reports leaves no line but its grant
// still counts in GrantedW, Warm follows the folds, a readmitted member
// arbitrates cold and reseeds the fleet, Forget reaches the arbiter and
// the SLO tracker, and the lines of a returned record are never reused.
func TestEpochCoreByHand(t *testing.T) {
	arb := &forgetLog{SlackReclaim: cluster.NewSlackReclaim()}
	core := cluster.NewEpochCore(arb)
	params := func(target float64) cluster.MemberParams {
		p, err := cluster.MemberParams{TargetBIPS: target}.Normalize("m")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := cluster.NewEpochMember("a", params(0), 100, 5e5)
	b := cluster.NewEpochMember("b", params(4), 80, 5e5) // a 4 BIPS contract
	c := cluster.NewEpochMember("c", params(0), 60, 5e5)
	live := []*cluster.EpochMember{&a, &b, &c}
	const budget = 150.0

	// seed is what a fresh arbiter grants the all-cold fleet.
	seed := make([]float64, 3)
	cold := make([]cluster.Observation, 3)
	for i, m := range live {
		cold[i] = cluster.Observation{PeakW: m.PeakW, FloorW: m.FloorW, Weight: m.Weight, TargetBIPS: m.TargetBIPS}
	}
	if err := cluster.ComputeGrants(cluster.NewSlackReclaim(), budget, []string{"a", "b", "c"}, cold, seed); err != nil {
		t.Fatal(err)
	}

	// Epoch 0: everyone is cold; a and b complete it, c never reports.
	if err := core.Arbitrate(budget, live); err != nil {
		t.Fatal(err)
	}
	for i, m := range live {
		if m.GrantW != seed[i] {
			t.Errorf("epoch 0: %s granted %v W, want the seed %v W", m.ID, m.GrantW, seed[i])
		}
	}
	// b retires 1e6 instructions in 5e5 ns: 2 BIPS against a 4 BIPS target.
	core.Fold(&a, cluster.MemberReport{Epoch: 0, PowerW: 30, ThrottleFrac: 0, Instr: 3e6})
	core.Fold(&b, cluster.MemberReport{Epoch: 0, PowerW: b.GrantW, ThrottleFrac: 0.5, Instr: 1e6})
	rec0 := core.Finish(0, budget)

	if got, want := rec0.GrantedW, seed[0]+seed[1]+seed[2]; got != want {
		t.Errorf("epoch 0: GrantedW %v, want %v (the silent member's grant included)", got, want)
	}
	wantLines := []cluster.MemberGrant{
		{ID: "a", Epoch: 0, GrantW: seed[0], PowerW: 30, SlackW: seed[0] - 30, Instr: 3e6},
		{ID: "b", Epoch: 0, GrantW: seed[1], PowerW: seed[1], ThrottleFrac: 0.5, Instr: 1e6,
			BIPS: 2, TargetBIPS: 4, SLOViolated: true},
	}
	if !reflect.DeepEqual(rec0.Members, wantLines) {
		t.Errorf("epoch 0 lines:\n got %+v\nwant %+v", rec0.Members, wantLines)
	}
	wantEvents := []cluster.SLOEvent{{Member: "b", Type: cluster.SLOViolated, BIPS: 2, TargetBIPS: 4}}
	if !reflect.DeepEqual(rec0.Events, wantEvents) {
		t.Errorf("epoch 0 events %+v, want %+v", rec0.Events, wantEvents)
	}
	if !a.Warm || !b.Warm || c.Warm {
		t.Errorf("warm after epoch 0: a=%v b=%v c=%v, want true true false", a.Warm, b.Warm, c.Warm)
	}
	if a.Local != 1 || c.Local != 0 {
		t.Errorf("local epochs after epoch 0: a=%d c=%d, want 1 0", a.Local, c.Local)
	}

	// The driver evicts the silent member.
	core.Forget("c")
	if !reflect.DeepEqual(arb.forgot, []string{"c"}) {
		t.Errorf("arbiter saw Forget calls %v, want [c]", arb.forgot)
	}

	// Epoch 1: a warm fleet of two; the reactive rule moves watts from
	// the idle a to the throttled b. b is still violated: a quiet epoch.
	live = []*cluster.EpochMember{&a, &b}
	if err := core.Arbitrate(budget, live); err != nil {
		t.Fatal(err)
	}
	if !(b.GrantW > seed[1]) {
		t.Errorf("epoch 1: throttled b granted %v W, want more than its seed %v W", b.GrantW, seed[1])
	}
	core.Fold(&a, cluster.MemberReport{Epoch: 1, PowerW: 30, Instr: 3e6})
	core.Fold(&b, cluster.MemberReport{Epoch: 1, PowerW: b.GrantW, ThrottleFrac: 0.5, Instr: 1e6})
	rec1 := core.Finish(1, budget)
	if rec1.Events != nil {
		t.Errorf("quiet epoch carries events %+v, want nil", rec1.Events)
	}
	if rec1.GrantedW != a.GrantW+b.GrantW {
		t.Errorf("epoch 1: GrantedW %v, want %v", rec1.GrantedW, a.GrantW+b.GrantW)
	}

	// b leaves and comes back under the same id: its SLO hysteresis must
	// be gone, so the same shortfall is a fresh violation event.
	core.Forget("b")
	b.Admit(2)
	// c is readmitted one local epoch in: cold, so the fleet reseeds.
	c.Admit(1)
	if c.Warm || c.GrantW != 0 || c.Local != 1 {
		t.Errorf("readmitted c: warm=%v grant=%v local=%d, want false 0 1", c.Warm, c.GrantW, c.Local)
	}
	live = []*cluster.EpochMember{&a, &b, &c}
	if err := core.Arbitrate(budget, live); err != nil {
		t.Fatal(err)
	}
	for i, m := range live {
		if m.GrantW != seed[i] {
			t.Errorf("readmission epoch: %s granted %v W, want the seed %v W", m.ID, m.GrantW, seed[i])
		}
	}
	core.Fold(&a, cluster.MemberReport{Epoch: 2, PowerW: 30, Instr: 3e6})
	core.Fold(&b, cluster.MemberReport{Epoch: 2, PowerW: 40, Instr: 1e6})
	core.Fold(&c, cluster.MemberReport{Epoch: 1, PowerW: 20, Instr: 2e6, Done: true})
	rec2 := core.Finish(2, budget)
	if !reflect.DeepEqual(rec2.Events, wantEvents) {
		t.Errorf("after Forget the repeated shortfall gave events %+v, want a fresh %+v", rec2.Events, wantEvents)
	}
	if last := rec2.Members[2]; last.ID != "c" || last.Epoch != 1 || !last.Done || c.Local != 2 || !c.Warm {
		t.Errorf("readmitted c's line %+v (local %d, warm %v), want its local epoch 1, done", last, c.Local, c.Warm)
	}

	// Records are retained by callers: later epochs never touch them.
	if !reflect.DeepEqual(rec0.Members, wantLines) {
		t.Errorf("epoch 0 lines changed under later epochs: %+v", rec0.Members)
	}
}
