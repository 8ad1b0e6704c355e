package fastcap_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"strings"

	"repro"
)

// Cap a simulated 8-core server at 60% of peak power with FastCap,
// watch each control epoch stream by, and report what the cap cost
// each application.
func ExampleNewSession() {
	ctx := context.Background()
	// MIX3 mixes memory-bound (equake, ammp) with CPU-bound (sjeng,
	// crafty) applications.
	mix, err := fastcap.WorkloadByName("MIX3")
	if err != nil {
		log.Fatal(err)
	}
	cfg := fastcap.ExperimentConfig{
		Sim:        fastcap.DefaultSystemConfig(8),
		Mix:        mix,
		BudgetFrac: 0.60,
		Epochs:     8,
		Policy:     fastcap.NewFastCapPolicy(),
	}
	// Short epochs keep the run fast (the paper uses 5 ms epochs).
	cfg.Sim.EpochNs, cfg.Sim.ProfileNs = 5e5, 5e4

	// A session runs the control loop one epoch per Step; the observer
	// sees every epoch's telemetry the moment it completes.
	ses, err := fastcap.NewSession(cfg, fastcap.WithObserver(func(e fastcap.EpochRecord) {
		fmt.Printf("epoch %d: %.1f W under a %.1f W cap\n", e.Epoch, e.AvgPowerW, e.BudgetW)
	}))
	if err != nil {
		log.Fatal(err)
	}
	for {
		_, err := ses.Step(ctx)
		if errors.Is(err, fastcap.ErrSessionDone) {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	res := ses.Result()
	fmt.Printf("peak %.1f W, budget %.1f W, average %.1f W, max epoch %.1f W\n",
		res.PeakW, res.BudgetW, res.AvgPowerW(), res.MaxEpochPowerW())

	// Normalize against the all-max baseline to see the cap's cost.
	cfg.Policy = nil
	base, err := fastcap.RunExperiment(cfg)
	if err != nil {
		log.Fatal(err)
	}
	norm, err := res.NormalizedPerf(base)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := fastcap.InstantiateWorkload(mix, cfg.Sim.Cores)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("slowdown per application (1.000 = full speed):")
	for i, v := range norm {
		fmt.Printf("core %d %-7s %.3f\n", i, wl.Apps[i].Name, v)
	}
	// Output:
	// epoch 0: 50.1 W under a 49.7 W cap
	// epoch 1: 49.6 W under a 49.7 W cap
	// epoch 2: 49.7 W under a 49.7 W cap
	// epoch 3: 49.0 W under a 49.7 W cap
	// epoch 4: 49.4 W under a 49.7 W cap
	// epoch 5: 49.3 W under a 49.7 W cap
	// epoch 6: 49.4 W under a 49.7 W cap
	// epoch 7: 49.6 W under a 49.7 W cap
	// peak 82.8 W, budget 49.7 W, average 49.5 W, max epoch 50.1 W
	// slowdown per application (1.000 = full speed):
	// core 0 equake  1.153
	// core 1 ammp    1.121
	// core 2 sjeng   1.118
	// core 3 crafty  1.180
	// core 4 equake  1.152
	// core 5 ammp    1.120
	// core 6 sjeng   1.162
	// core 7 crafty  1.179
}

// A datacenter power emergency: the budget trace steps from 80% down
// to 50% while a mixed workload runs, then an operator retargets the
// session mid-flight to 65%. Power follows each step within an epoch;
// '!' marks the cap on each power bar.
func ExampleWithBudgetTrace() {
	mix, err := fastcap.WorkloadByName("MIX1")
	if err != nil {
		log.Fatal(err)
	}
	cfg := fastcap.ExperimentConfig{
		Sim:        fastcap.DefaultSystemConfig(8),
		Mix:        mix,
		BudgetFrac: 0.80, // the trace overrides this per epoch
		Epochs:     12,
		Policy:     fastcap.NewFastCapPolicy(),
	}
	cfg.Sim.EpochNs, cfg.Sim.ProfileNs = 5e5, 5e4
	emergency := func(epoch int) float64 {
		if epoch < 4 {
			return 0.80 // normal operation
		}
		return 0.50 // breaker overload: shed power now
	}
	ses, err := fastcap.NewSession(cfg,
		fastcap.WithBudgetTrace(emergency),
		fastcap.WithObserver(func(e fastcap.EpochRecord) {
			frac := e.AvgPowerW / e.PeakW
			bar := strings.Repeat("#", int(frac*40)) + strings.Repeat(" ", 40)
			mark := int(e.BudgetW / e.PeakW * 40)
			bar = strings.TrimRight(bar[:mark]+"!"+bar[mark:], " ")
			fmt.Printf("%5d %6.1f W %6.1f W %10.3f  %s\n", e.Epoch, e.BudgetW, e.AvgPowerW, frac, bar)
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("epoch   budget    power  power/peak")
	for {
		// Partial recovery: an explicit retarget detaches the trace and
		// takes effect on the next epoch.
		if ses.Epoch() == 8 {
			if err := ses.SetBudgetFrac(0.65); err != nil {
				log.Fatal(err)
			}
		}
		_, err := ses.Step(context.Background())
		if errors.Is(err, fastcap.ErrSessionDone) {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	// Output:
	// epoch   budget    power  power/peak
	//     0   65.7 W   64.0 W      0.780  ############################### !
	//     1   65.7 W   64.0 W      0.780  ############################### !
	//     2   65.7 W   64.0 W      0.779  ############################### !
	//     3   65.7 W   63.9 W      0.779  ############################### !
	//     4   41.1 W   43.3 W      0.528  ####################!#
	//     5   41.1 W   40.3 W      0.490  ################### !
	//     6   41.1 W   40.7 W      0.496  ################### !
	//     7   41.1 W   40.2 W      0.489  ################### !
	//     8   53.4 W   51.7 W      0.630  ######################### !
	//     9   53.4 W   53.2 W      0.648  ######################### !
	//    10   53.4 W   53.5 W      0.651  ##########################!
	//    11   53.4 W   53.4 W      0.651  ##########################!
}

// The paper's per-processor budget extension (§III-B): an 8-core
// machine built from two 4-core sockets, where socket 0 is held to a
// tight thermal budget while the whole system holds a 70% cap.
// FastCap keeps both constraints and still slows every core by about
// the same factor.
func ExampleNewGroupedFastCapPolicy() {
	mix, err := fastcap.WorkloadByName("MID2")
	if err != nil {
		log.Fatal(err)
	}
	run := func(pol fastcap.Policy) *fastcap.ExperimentResult {
		cfg := fastcap.ExperimentConfig{
			Sim:        fastcap.DefaultSystemConfig(8),
			Mix:        mix,
			BudgetFrac: 0.70,
			Epochs:     10,
			Policy:     pol,
		}
		cfg.Sim.EpochNs, cfg.Sim.ProfileNs = 5e5, 5e4
		res, err := fastcap.RunExperiment(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	// Mean and max power of cores [lo, hi), skipping the two warm-up
	// epochs.
	socketW := func(res *fastcap.ExperimentResult, lo, hi int) (mean, max float64) {
		for _, e := range res.Epochs[2:] {
			sum := 0.0
			for _, w := range e.CoreW[lo:hi] {
				sum += w
			}
			mean += sum
			max = math.Max(max, sum)
		}
		return mean / float64(len(res.Epochs)-2), max
	}

	const socketCapW = 9.0 // socket 0: a hot spot or a failing VRM
	grouped := run(fastcap.NewGroupedFastCapPolicy([]fastcap.BudgetGroup{
		{Cores: []int{0, 1, 2, 3}, Budget: socketCapW},
	}))
	fmt.Println("policy           system W  socket0 mean/max W  socket1 mean W")
	for _, res := range []*fastcap.ExperimentResult{run(fastcap.NewFastCapPolicy()), grouped} {
		s0, s0max := socketW(res, 0, 4)
		s1, _ := socketW(res, 4, 8)
		fmt.Printf("%-16s %8.1f  %9.1f/%-8.1f %14.1f\n", res.PolicyName, res.AvgPowerW(), s0, s0max, s1)
	}

	norm, err := grouped.NormalizedPerf(run(nil))
	if err != nil {
		log.Fatal(err)
	}
	for i, cores := range [][]float64{norm[:4], norm[4:]} {
		s := fastcap.SummarizePerf(cores)
		fmt.Printf("socket %d slowdown: avg %.3f worst %.3f\n", i, s.Avg, s.Worst)
	}
	// Output:
	// policy           system W  socket0 mean/max W  socket1 mean W
	// FastCap              56.6       12.9/13.2               13.3
	// FastCap-1groups      49.2        8.9/9.0                 9.2
	// socket 0 slowdown: avg 1.164 worst 1.196
	// socket 1 slowdown: avg 1.156 worst 1.166
}

// All seven capping policies on one workload and budget, as in the
// paper's Figs. 9-11: who holds the cap, who is fast on average, and
// who creates performance outliers. Normalized performance is capped
// time per instruction over uncapped (1.000 = full speed), and a gap
// between avg and worst marks an unfair policy.
func ExampleRunExperiment() {
	mix, err := fastcap.WorkloadByName("MIX4")
	if err != nil {
		log.Fatal(err)
	}
	cfg := fastcap.ExperimentConfig{
		Sim:        fastcap.DefaultSystemConfig(4), // MaxBIPS is exhaustive: 4 cores at most
		Mix:        mix,
		BudgetFrac: 0.60,
		Epochs:     10,
	}
	cfg.Sim.EpochNs, cfg.Sim.ProfileNs = 5e5, 5e4
	base, err := fastcap.RunExperiment(cfg) // Policy nil: the all-max baseline
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("budget %.1f W of %.1f W peak\n", cfg.BudgetFrac*base.PeakW, base.PeakW)
	fmt.Println("policy     avg W  max W  avg perf  worst perf  Jain")
	for _, pol := range []fastcap.Policy{
		fastcap.NewFastCapPolicy(),
		fastcap.NewCPUOnlyPolicy(),
		fastcap.NewFreqParPolicy(),
		fastcap.NewEqlPwrPolicy(),
		fastcap.NewEqlFreqPolicy(),
		fastcap.NewGreedyPolicy(),
		fastcap.NewMaxBIPSPolicy(),
	} {
		cfg.Policy = pol
		res, err := fastcap.RunExperiment(cfg)
		if err != nil {
			log.Fatal(err)
		}
		norm, err := res.NormalizedPerf(base)
		if err != nil {
			log.Fatal(err)
		}
		s := fastcap.SummarizePerf(norm)
		fmt.Printf("%-9s %6.1f %6.1f %9.3f %11.3f %5.3f\n",
			pol.Name(), res.AvgPowerW(), res.MaxEpochPowerW(), s.Avg, s.Worst, s.Jain)
	}
	// Output:
	// budget 38.2 W of 63.7 W peak
	// policy     avg W  max W  avg perf  worst perf  Jain
	// FastCap     37.8   38.5     1.109       1.114 1.000
	// CPU-only    37.9   38.2     1.188       1.212 1.000
	// Freq-Par    38.0   40.0     1.242       1.299 0.999
	// Eql-Pwr     36.4   37.3     1.147       1.178 1.000
	// Eql-Freq    38.1   38.4     1.107       1.113 1.000
	// Greedy      38.3   39.4     1.109       1.346 0.985
	// MaxBIPS     38.4   39.4     1.110       1.376 0.981
}

// The paper's scalability claim: FastCap holds the cap and stays fair
// as the machine grows. Each row is one capped run and its all-max
// baseline; Figs. 12-13 (cmd/fastcap-tables) carry the study to 64
// cores.
func ExampleRunExperimentPair() {
	mix, err := fastcap.WorkloadByName("MIX3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cores  peak W  avg W  pwr/peak  avg perf  worst perf  Jain")
	for _, n := range []int{4, 8, 16} {
		cfg := fastcap.ExperimentConfig{
			Sim:        fastcap.DefaultSystemConfig(n),
			Mix:        mix,
			BudgetFrac: 0.60,
			Epochs:     8,
			Policy:     fastcap.NewFastCapPolicy(),
		}
		cfg.Sim.EpochNs, cfg.Sim.ProfileNs = 1e6, 1e5
		res, base, err := fastcap.RunExperimentPair(cfg)
		if err != nil {
			log.Fatal(err)
		}
		norm, err := res.NormalizedPerf(base)
		if err != nil {
			log.Fatal(err)
		}
		s := fastcap.SummarizePerf(norm)
		fmt.Printf("%5d %7.0f %6.1f %9.3f %9.3f %11.3f %5.3f\n",
			n, res.PeakW, res.AvgPowerW(), res.AvgPowerW()/res.PeakW, s.Avg, s.Worst, s.Jain)
	}
	// Output:
	// cores  peak W  avg W  pwr/peak  avg perf  worst perf  Jain
	//     4      64   38.5     0.598     1.077       1.113 1.000
	//     8      83   49.5     0.598     1.143       1.177 1.000
	//    16     120   71.7     0.600     1.176       1.196 1.000
}

// One power budget arbitrated across three capped machines: a
// compute-bound web tier holding a throughput contract (95% of its own
// uncapped BIPS), a balanced batch tier and a memory-bound analytics
// tier. The SLO arbiter funds the contract's estimated demand first.
// The run starts budget-starved, so the cold-start split violates the
// contract; the arbiter then moves watts from the best-effort tiers
// until the contract is restored. Half-way the budget doubles.
func ExampleNewClusterCoordinator() {
	const epochs = 12
	config := func(mixName string) fastcap.ExperimentConfig {
		mix, err := fastcap.WorkloadByName(mixName)
		if err != nil {
			log.Fatal(err)
		}
		cfg := fastcap.ExperimentConfig{
			Sim:        fastcap.DefaultSystemConfig(8),
			Mix:        mix,
			BudgetFrac: 1, // the coordinator sets the cap every epoch
			Epochs:     epochs,
			Policy:     fastcap.NewFastCapPolicy(),
		}
		cfg.Sim.EpochNs, cfg.Sim.ProfileNs = 5e5, 5e4
		return cfg
	}
	member := func(id string, cfg fastcap.ExperimentConfig, targetBIPS float64) fastcap.ClusterMember {
		ses, err := fastcap.NewSession(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return fastcap.ClusterMember{ID: id, Session: ses, TargetBIPS: targetBIPS}
	}

	// The contract: 95% of the BIPS web retires alone at full budget.
	solo, err := fastcap.RunExperiment(config("ILP1"))
	if err != nil {
		log.Fatal(err)
	}
	instr := 0.0
	for _, v := range solo.TotalInstr {
		instr += v
	}
	target := 0.95 * instr / solo.TotalTimeNs // instructions per ns = BIPS

	members := []fastcap.ClusterMember{
		member("web", config("ILP1"), target),
		member("bat", config("MIX3"), 0),
		member("ana", config("MEM4"), 0),
	}
	peak := 0.0
	for _, m := range members {
		peak += m.Session.PeakPowerW()
	}
	coord, err := fastcap.NewClusterCoordinator(fastcap.ClusterConfig{
		BudgetW: 0.45 * peak,
		Arbiter: fastcap.NewSLOArbiter(),
	}, members)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.0f W peak, budget 45%% then 90%%; web holds a %.2f BIPS contract\n", peak, target)
	fmt.Println("grant/power W per member\nepoch          web          bat          ana")
	for {
		rec, err := coord.Step(context.Background())
		if errors.Is(err, fastcap.ErrClusterDone) {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if rec.Epoch == epochs/2 {
			if err := coord.SetBudgetW(0.9 * peak); err != nil {
				log.Fatal(err)
			}
		}
		line := fmt.Sprintf("%5d", rec.Epoch)
		for _, m := range rec.Members {
			line += fmt.Sprintf("  %5.1f/%5.1f", m.GrantW, m.PowerW)
		}
		for _, ev := range rec.Events {
			line += fmt.Sprintf("  %s %s (%.2f BIPS)", ev.Member, ev.Type, ev.BIPS)
		}
		fmt.Println(line)
	}
	// Output:
	// 245 W peak, budget 45% then 90%; web holds a 25.37 BIPS contract
	// grant/power W per member
	// epoch          web          bat          ana
	//     0   38.2/ 38.1   37.2/ 38.8   34.8/ 37.4  web slo_violated (17.66 BIPS)
	//     1   50.6/ 48.1   30.8/ 32.6   28.8/ 32.6
	//     2   56.9/ 54.8   27.6/ 32.4   25.8/ 32.3
	//     3   61.7/ 60.4   25.1/ 32.4   23.5/ 32.3  web slo_restored (25.64 BIPS)
	//     4   65.2/ 64.0   23.3/ 32.5   21.8/ 32.3
	//     5   67.9/ 64.5   21.9/ 32.5   20.5/ 32.4
	//     6   69.1/ 64.5   21.3/ 32.5   19.9/ 32.4
	//     7   76.5/ 64.5   74.5/ 58.0   69.6/ 54.1
	//     8   76.5/ 64.4   74.5/ 62.1   69.6/ 57.5
	//     9   76.5/ 64.5   74.5/ 62.0   69.6/ 57.4
	//    10   76.5/ 64.5   74.5/ 62.1   69.6/ 57.4
	//    11   76.5/ 64.4   74.5/ 62.1   69.6/ 57.5
}

// One power budget across three machines on two daemons that share
// nothing but the distributed coordination protocol: every grant and
// report crosses a wire. The "edge" daemon crashes after its epoch-3
// step; the coordinator evicts its silent member at the straggler
// deadline and hands its watts to the others. The daemon reboots,
// replays its grant journal to the exact pre-crash state, re-announces
// and is readmitted at an epoch boundary. The transport is the seeded
// in-memory network of the protocol's chaos tests, so every run makes
// the same grants.
func ExampleNewDistCoordinator() {
	// Member sessions use the JSON schema of fastcapd's POST /sessions.
	spec := func(mix string) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(
			`{"mix":%q,"budget_frac":1,"cores":4,"epochs":10,"epoch_ms":0.5}`, mix))
	}
	// A slice, not a map: the peak sum and the announce order are fixed.
	daemons := []struct {
		name    string
		members []fastcap.DistMemberSpec
	}{
		{"rack", []fastcap.DistMemberSpec{{ID: "web", Spec: spec("ILP1")}, {ID: "bat", Spec: spec("MIX3")}}},
		{"edge", []fastcap.DistMemberSpec{{ID: "ana", Spec: spec("MEM4")}}},
	}
	build := fastcap.DistSessionBuilder()
	peak := 0.0
	for _, d := range daemons {
		for _, m := range d.members {
			ses, err := build(m.Spec)
			if err != nil {
				log.Fatal(err)
			}
			peak += ses.PeakPowerW()
		}
	}

	net := fastcap.NewDistSimNet(fastcap.DistSimConfig{
		Seed: 1,
		Faults: fastcap.DistFaults{Restarts: []fastcap.DistRestart{
			{Agent: "edge", Epoch: 3, AfterStep: true, RestartAfterNs: 6e6},
		}},
	})
	coord, err := fastcap.NewDistCoordinator(fastcap.DistConfig{
		BudgetW:         0.75 * peak,
		Arbiter:         fastcap.NewSlackReclaimArbiter(),
		Expect:          3,
		EpochDeadlineNs: 3e6,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Each daemon's start function doubles as its reboot hook: a
	// restarted agent is rebuilt by NewDistAgent, which replays the
	// journal before it announces.
	for _, d := range daemons {
		journal := &fastcap.DistMemJournal{}
		var start func()
		start = func() {
			a, err := fastcap.NewDistAgent(fastcap.DistAgentConfig{
				Name:    d.name,
				Members: d.members,
				Build:   build,
				Send:    net.Sender(d.name),
				Clock:   net.Clock(d.name),
				Journal: journal,
			})
			if err != nil {
				log.Fatal(err)
			}
			net.Register(d.name, a.Handle, start)
			a.Start()
		}
		start()
	}
	if err := coord.Run(net); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%.0f W peak, %.0f W budget\n", peak, 0.75*peak)
	fmt.Println("epoch  web W  bat W  ana W")
	for _, rec := range coord.Records() {
		grants := map[string]string{"web": "-", "bat": "-", "ana": "-"}
		for _, m := range rec.Members {
			grants[m.ID] = fmt.Sprintf("%.1f", m.GrantW)
		}
		fmt.Printf("%5d %6s %6s %6s\n", rec.Epoch, grants["web"], grants["bat"], grants["ana"])
	}
	for _, ev := range coord.Events() {
		line := fmt.Sprintf("epoch %d: %s %s", ev.Epoch, ev.Type, ev.Member)
		if ev.Reason != "" {
			line += " (" + ev.Reason + ")"
		}
		fmt.Println(line)
	}
	for _, mr := range coord.Results() {
		fmt.Printf("%s ran %d epochs\n", mr.ID, len(mr.Result.Epochs))
	}
	// Output:
	// 192 W peak, 144 W budget
	// epoch  web W  bat W  ana W
	//     0   49.1   48.3   46.2
	//     1   49.1   48.1   46.5
	//     2   49.1   48.0   46.5
	//     3   49.1   48.0      -
	//     4   65.5   64.4      -
	//     5   65.5   64.4      -
	//     6   65.5   64.4      -
	//     7   49.1   48.3   46.2
	//     8   49.1   48.1   46.4
	//     9   49.1   48.0   46.5
	//    10      -      -   61.7
	//    11      -      -   61.7
	//    12      -      -   61.7
	// epoch 0: join web
	// epoch 0: join bat
	// epoch 0: join ana
	// epoch 3: evict ana (missed the epoch straggler deadline)
	// epoch 7: readmit ana
	// web ran 10 epochs
	// bat ran 10 epochs
	// ana ran 10 epochs
}
