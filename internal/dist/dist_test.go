package dist_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cpusim"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testSpec is the member session spec the tests ship over the wire (and
// through the journal): everything needed to rebuild the exact session,
// JSON-encoded, so restart recovery exercises the real spec round-trip.
type testSpec struct {
	Mix    string `json:"mix"`
	Cores  int    `json:"cores"`
	Epochs int    `json:"epochs"`
	Seed   int64  `json:"seed,omitempty"`
	Policy string `json:"policy,omitempty"`
	Mach   string `json:"mach,omitempty"`
}

func specJSON(t *testing.T, sp testSpec) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// bigLittle mirrors the cluster test fixture's 2+2 asymmetric machine.
func bigLittle() *sim.MachineSpec {
	return &sim.MachineSpec{
		Name: "bigLITTLE-2+2",
		Classes: []sim.CoreClass{
			{Name: "big", Count: 2},
			{Name: "little", Count: 2,
				Ladder:       dvfs.EfficiencyCoreLadder(),
				Power:        cpusim.PowerConfig{DynMaxW: 1.5, StaticW: 0.2, GateFrac: 0.12},
				ExecCPIScale: 1.25},
		},
	}
}

// buildSession is the BuildFunc under test: the same construction the
// cluster fixture uses, driven from the JSON spec.
func buildSession(raw json.RawMessage) (*runner.Session, error) {
	var sp testSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, err
	}
	mix, err := workload.MixByName(sp.Mix)
	if err != nil {
		return nil, err
	}
	sc := sim.DefaultConfig(sp.Cores)
	sc.EpochNs = 5e5
	sc.ProfileNs = 5e4
	if sp.Seed != 0 {
		sc.Seed = sp.Seed
	}
	switch sp.Mach {
	case "":
	case "biglittle":
		sc.Machine = bigLittle()
	default:
		return nil, fmt.Errorf("unknown machine %q", sp.Mach)
	}
	var pol policy.Policy
	switch sp.Policy {
	case "":
	case "fastcap":
		pol = policy.NewFastCap()
	case "eqlpwr":
		pol = policy.NewEqlPwr()
	case "greedy":
		pol = policy.NewGreedy()
	default:
		return nil, fmt.Errorf("unknown policy %q", sp.Policy)
	}
	return runner.NewSession(runner.Config{Sim: sc, Mix: mix, BudgetFrac: 1, Epochs: sp.Epochs, Policy: pol})
}

// fixtureMember binds one member spec to the agent that hosts it.
type fixtureMember struct {
	id    string
	agent string
	spec  testSpec
}

// goldenFixture is the cluster layer's 8-member mixed-machine golden
// fixture, spread across three agents.
func goldenFixture() []fixtureMember {
	return []fixtureMember{
		{"ilp", "a1", testSpec{Mix: "ILP1", Cores: 8, Epochs: 8, Policy: "fastcap"}},
		{"mem", "a1", testSpec{Mix: "MEM4", Cores: 8, Epochs: 8, Policy: "fastcap"}},
		{"mix", "a1", testSpec{Mix: "MIX3", Cores: 4, Epochs: 7, Seed: 7, Policy: "fastcap"}},
		{"mid", "a2", testSpec{Mix: "MID1", Cores: 4, Epochs: 5, Policy: "eqlpwr"}},
		{"bl1", "a2", testSpec{Mix: "MIX1", Cores: 4, Epochs: 8, Mach: "biglittle", Policy: "fastcap"}},
		{"bl2", "a2", testSpec{Mix: "MEM2", Cores: 4, Epochs: 6, Seed: 42, Mach: "biglittle", Policy: "fastcap"}},
		{"base", "a3", testSpec{Mix: "MID2", Cores: 4, Epochs: 4}},
		{"grd", "a3", testSpec{Mix: "ILP2", Cores: 4, Epochs: 8, Policy: "greedy"}},
	}
}

// chaosFixture is a lighter 4-member, 2-agent cluster for the fault
// sweeps.
func chaosFixture() []fixtureMember {
	return []fixtureMember{
		{"c1", "a1", testSpec{Mix: "MIX1", Cores: 4, Epochs: 8, Policy: "fastcap"}},
		{"c2", "a1", testSpec{Mix: "MEM2", Cores: 4, Epochs: 6, Seed: 42, Mach: "biglittle", Policy: "fastcap"}},
		{"c3", "a2", testSpec{Mix: "ILP2", Cores: 4, Epochs: 5, Policy: "greedy"}},
		{"c4", "a2", testSpec{Mix: "MID1", Cores: 4, Epochs: 7, Policy: "eqlpwr"}},
	}
}

// sumPeaks builds each fixture session once and sums the peaks in
// fixture order — the same float sequence the in-process golden run
// uses for its budget.
func sumPeaks(t *testing.T, fixture []fixtureMember) float64 {
	t.Helper()
	peak := 0.0
	for _, fm := range fixture {
		ses, err := buildSession(specJSON(t, fm.spec))
		if err != nil {
			t.Fatal(err)
		}
		peak += ses.PeakPowerW()
	}
	return peak
}

// distRun configures one simulated distributed run.
type distRun struct {
	fixture []fixtureMember
	seed    int64
	faults  dist.Faults
	arbiter func() cluster.Arbiter // default NewSlackReclaim
	cfg     dist.Config            // BudgetW/Arbiter/Expect filled in
	targets map[string]float64     // member id → TargetBIPS contract
	// heartbeatNs is the agents' idle heartbeat period (0: off).
	heartbeatNs int64
	// intercept, when set, sees every coordinator → agent delivery first
	// and swallows it by returning true.
	intercept func(coord *dist.Coordinator, agent string, a *dist.Agent, m dist.Msg) bool
}

// runDist wires the fixture's agents onto a SimNet (with journal-backed
// restart recovery) and drives the coordinator to completion.
func runDist(t *testing.T, r distRun) (*dist.Coordinator, error) {
	t.Helper()
	net := dist.NewSimNet(dist.SimConfig{Seed: r.seed, Faults: r.faults})
	cfg := r.cfg
	if cfg.BudgetW == 0 {
		cfg.BudgetW = 0.7 * sumPeaks(t, r.fixture)
	}
	if cfg.Arbiter == nil {
		if r.arbiter != nil {
			cfg.Arbiter = r.arbiter()
		} else {
			cfg.Arbiter = cluster.NewSlackReclaim()
		}
	}
	if cfg.Expect == 0 {
		cfg.Expect = len(r.fixture)
	}
	coord, err := dist.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var agents []string
	byAgent := map[string][]dist.MemberSpec{}
	for _, fm := range r.fixture {
		if _, ok := byAgent[fm.agent]; !ok {
			agents = append(agents, fm.agent)
		}
		byAgent[fm.agent] = append(byAgent[fm.agent], dist.MemberSpec{ID: fm.id, TargetBIPS: r.targets[fm.id], Spec: specJSON(t, fm.spec)})
	}
	for _, name := range agents {
		name := name
		journal := &dist.MemJournal{}
		// start both boots and (via the SimNet rebuild hook) reboots
		// the agent: recovery goes through NewAgent's journal replay.
		var start func()
		start = func() {
			a, err := dist.NewAgent(dist.AgentConfig{
				Name: name, Members: byAgent[name],
				Build: buildSession, Send: net.Sender(name), Clock: net.Clock(name),
				Journal: journal, HeartbeatNs: r.heartbeatNs,
			})
			if err != nil {
				t.Fatalf("agent %s: %v", name, err)
			}
			handle := a.Handle
			if r.intercept != nil {
				handle = func(m dist.Msg) {
					if !r.intercept(coord, name, a, m) {
						a.Handle(m)
					}
				}
			}
			net.Register(name, handle, start)
			a.Start()
		}
		start()
	}
	return coord, coord.Run(net)
}

// runInProcess drives the classic single-process Coordinator over the
// same fixture.
func runInProcess(t *testing.T, fixture []fixtureMember, arb cluster.Arbiter) ([]cluster.EpochRecord, []cluster.MemberResult) {
	t.Helper()
	members := make([]cluster.Member, len(fixture))
	peak := 0.0
	for i, fm := range fixture {
		ses, err := buildSession(specJSON(t, fm.spec))
		if err != nil {
			t.Fatal(err)
		}
		peak += ses.PeakPowerW()
		members[i] = cluster.Member{ID: fm.id, Session: ses}
	}
	c, err := cluster.New(cluster.Config{BudgetW: 0.7 * peak, Arbiter: arb, Workers: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	var recs []cluster.EpochRecord
	for {
		rec, err := c.Step(context.Background())
		if errors.Is(err, cluster.ErrDone) {
			break
		}
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		recs = append(recs, rec)
	}
	return recs, c.Results()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
