package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/runner"
)

// The two fleet workloads arbitrate one budget over the same eight
// machines — once in process (cluster.Coordinator.Step), once over the
// wire codec and the epoch barrier (dist.Coordinator.Run on SimNet).
// The members replay recordings, so a member's epoch costs a few
// microseconds and what is timed is the coordinator.
const (
	fleetCores   = 4
	fleetEpochMs = 0.5
	// fleetRecorded is how many cluster epochs the set-up simulates and
	// records. Replaying them under the same coordinator reproduces the
	// simulated fleet grant for grant, which is checked.
	fleetRecorded = 20
	// fleetBudgetFrac is the global budget as a share of the members'
	// summed peak.
	fleetBudgetFrac = 0.65
)

// fleetMixes are the member machines: two of each.
var fleetMixes = []string{"ILP1", "MEM4", "MIX3", "MID2"}

const fleetMembers = 8

// fleetMemberID names member k the way the two-agent layout does, so
// the in-process and the distributed fleet arbitrate identical ids in
// identical order.
func fleetMemberID(k int) string { return fmt.Sprintf("a%d.m%d", k/4, k%4) }

type fleetState struct {
	machines []*machine // per member
	budgetW  float64
	// want are the simulated fleet's first records; baseInstr each
	// member's uncapped instructions over them.
	want    []cluster.EpochRecord
	order   []int // the seed's churn order over members
	netSeed int64
}

// fleetSetup simulates the eight-member fleet under the slack arbiter
// for fleetRecorded cluster epochs, recording every member, and each
// member uncapped.
func fleetSetup(e *env) (any, error) {
	rng := e.rng()
	st := &fleetState{order: rng.Perm(fleetMembers), netSeed: rng.Int63()}
	var members []cluster.Member
	var recs []*replay.Recorder
	peak := 0.0
	for k := 0; k < fleetMembers; k++ {
		cfg := runner.Config{
			Sim:        simConfig(fleetCores, fleetEpochMs, simSeed(k)),
			Mix:        mustMix(fleetMixes[k%len(fleetMixes)]),
			BudgetFrac: 1, // the coordinator pushes the real cap before every epoch
			Epochs:     fleetRecorded,
		}
		base, err := runner.Run(cfg) // Policy nil: the uncapped baseline
		if err != nil {
			return nil, err
		}
		var rec *replay.Recorder
		cfg.Policy = policy.NewFastCap()
		// One epoch longer than what is stepped, so that no record carries
		// a member's done mark the replayed fleet would not repeat.
		cfg.Epochs = fleetRecorded + 1
		ses, err := runner.NewSession(cfg, runner.WithPlatformWrap(func(p runner.Platform) runner.Platform {
			rec = replay.NewRecorder(p)
			return rec
		}))
		if err != nil {
			return nil, err
		}
		cfg.Policy = nil
		recs = append(recs, rec)
		st.machines = append(st.machines, &machine{name: fleetMemberID(k), cfg: cfg,
			baseInstr: []float64{sumAll(sumInstr(base.Epochs, fleetRecorded))}})
		members = append(members, cluster.Member{ID: fleetMemberID(k), Session: ses})
		peak += ses.PeakPowerW()
	}
	st.budgetW = fleetBudgetFrac * peak
	co, err := cluster.New(cluster.Config{BudgetW: st.budgetW, Arbiter: cluster.NewSlackReclaim()}, members)
	if err != nil {
		return nil, err
	}
	for ep := 0; ep < fleetRecorded; ep++ {
		rec, err := co.Step(context.Background())
		if err != nil {
			return nil, err
		}
		rec.Members = append([]cluster.MemberGrant(nil), rec.Members...)
		st.want = append(st.want, rec)
	}
	for k, r := range recs {
		st.machines[k].rec = r.Recording()
	}
	return st, nil
}

func sumAll(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

// checkRecord applies the fleet promises to one cluster epoch: the
// grants sum to no more than the budget, and every grant lies between
// its member's floor and peak.
func (st *fleetState) checkRecord(rec cluster.EpochRecord) error {
	const eps = 1e-9
	sum := 0.0
	for _, m := range rec.Members {
		sum += m.GrantW
	}
	if sum > rec.BudgetW*(1+eps) || math.Abs(sum-rec.GrantedW) > eps*rec.BudgetW {
		return fmt.Errorf("epoch %d: grants sum to %g W (record says %g) over a budget of %g W", rec.Epoch, sum, rec.GrantedW, rec.BudgetW)
	}
	for _, m := range rec.Members {
		peak, ok := st.peakOf(m.ID)
		if !ok {
			return fmt.Errorf("epoch %d: unknown member %q", rec.Epoch, m.ID)
		}
		if m.GrantW < cluster.DefaultFloorFrac*peak*(1-eps) || m.GrantW > peak*(1+eps) {
			return fmt.Errorf("epoch %d: member %s granted %g W outside [%g, %g]", rec.Epoch, m.ID, m.GrantW, cluster.DefaultFloorFrac*peak, peak)
		}
	}
	return nil
}

// peakOf resolves a member id (founding "a0.m2" or attached
// "a0.m2+3") to its machine's peak. It runs for every member of every
// record inside the timed phase, so it reads the two digits in place.
func (st *fleetState) peakOf(id string) (float64, bool) {
	if len(id) < 5 || id[0] != 'a' || id[2] != '.' || id[3] != 'm' {
		return 0, false
	}
	k := int(id[1]-'0')*4 + int(id[4]-'0')
	if id[4] < '0' || id[4] > '3' || k < 0 || k >= len(st.machines) {
		return 0, false
	}
	return st.machines[k].rec.PeakW, true
}

// fidelityFrom checks that the first records of a replayed fleet are
// the simulated fleet's, and then takes the fleet-level fidelity from
// them: the members' summed draw against the global budget, and the
// spread of the members' normalised performance.
func (st *fleetState) fidelityFrom(out *outcome, name string, got []cluster.EpochRecord) {
	var err error
	switch {
	case len(got) < len(st.want):
		err = fmt.Errorf("%s: %d records, want at least %d", name, len(got), len(st.want))
	case !reflect.DeepEqual(got[:len(st.want)], st.want):
		err = fmt.Errorf("%s: the first %d records differ from the simulated fleet's", name, len(st.want))
	}
	if !out.op(err) {
		return
	}
	instr := make([]float64, fleetMembers)
	base := make([]float64, fleetMembers)
	for _, rec := range st.want {
		draw := 0.0
		for k, m := range rec.Members {
			draw += m.PowerW
			instr[k] += m.Instr
		}
		out.fid.capEpoch(rec.Epoch, draw, rec.BudgetW)
	}
	for k, m := range st.machines {
		base[k] = m.baseInstr[0]
	}
	out.op(out.fid.perf(instr, base))
}

// cluster_local8 ---------------------------------------------------------

const (
	// clusterRoundEpochs is how long one coordinator lives; the workload
	// builds a fresh fleet for every round until the deadline. Sessions
	// and coordinator keep every epoch record, so one coordinator stepped
	// for the whole timed phase held 700 MB by its end, and the page
	// faults of a heap that only grows made throughput drift by 7% from
	// run to run.
	clusterRoundEpochs = 10000
	// clusterChurnEvery: every so many cluster epochs the oldest member
	// is detached and a fresh one over the same machine attached.
	clusterChurnEvery = 1000
	// clusterBudgetEvery: the global budget alternates ±10% this often,
	// half a period away from the churn: the epoch after an attach steps
	// a cold member, and is not the retarget's to answer for.
	clusterBudgetEvery = 500
	// clusterMemberEpochs outlasts any member's stay, so that no record
	// carries a member's done mark.
	clusterMemberEpochs = clusterRoundEpochs + 1
)

// clusterPass steps fresh coordinators, one round each, until the
// deadline.
func (st *fleetState) clusterPass(e *env, tr *tracer, workers int) (*outcome, error) {
	out := &outcome{}
	ctx := context.Background()
	probeID := 0
	member := func(k int, id string) (cluster.Member, error) {
		p := newProbe(tr, probeID, layerReplay, true)
		probeID++
		ses, _, err := st.machines[k].session(clusterMemberEpochs, p)
		return cluster.Member{ID: id, Session: ses}, err
	}
	var newNs float64
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	deadline := e.deadline()
	rounds := 0
	for ; rounds == 0 || time.Now().Before(deadline); rounds++ {
		t0 := time.Now()
		var members []cluster.Member
		for k := 0; k < fleetMembers; k++ {
			m, err := member(k, fleetMemberID(k))
			if err != nil {
				return nil, err
			}
			members = append(members, m)
		}
		co, err := cluster.New(cluster.Config{BudgetW: st.budgetW, Arbiter: cluster.NewSlackReclaim(), Workers: workers}, members)
		if err != nil {
			return nil, err
		}
		newNs += float64(time.Since(t0))

		var first []cluster.EpochRecord
		var retargeted time.Time
		direction := 0 // of the last budget change: a raise and a cut cost differently
		prev := time.Now()
		for ep := 0; ep < clusterRoundEpochs; ep++ {
			if ep > 0 && ep%clusterChurnEvery == 0 {
				gen := ep / clusterChurnEvery
				k := st.order[(gen-1)%fleetMembers]
				oldID := fleetMemberID(k)
				if gen > fleetMembers {
					oldID = fmt.Sprintf("%s+%d", oldID, gen-fleetMembers)
				}
				_, err := co.Detach(oldID)
				out.op(err)
				var root int32 = -1
				if tr != nil {
					root = tr.begin(layerCluster, opAttach, -1, int32(gen))
				}
				m, err := member(k, fmt.Sprintf("%s+%d", fleetMemberID(k), gen))
				if err == nil {
					err = co.Attach(m)
				}
				if tr != nil {
					tr.end(root)
				}
				out.op(err)
				prev = time.Now()
			}
			if ep%clusterBudgetEvery == clusterBudgetEvery/2 {
				w := st.budgetW * 1.1
				if direction = ep / clusterBudgetEvery % 2; direction == 1 {
					w = st.budgetW * 0.9
				}
				retargeted = time.Now()
				prev = retargeted
				out.op(co.SetBudgetW(w))
			}
			var root int32 = -1
			if tr != nil {
				root = tr.begin(layerCluster, opEpoch, -1, int32(ep))
				tr.root.Store(root)
			}
			rec, err := co.Step(ctx)
			if tr != nil {
				tr.end(root)
			}
			now := time.Now()
			if !out.op(err) {
				break
			}
			out.epoch.add(0, now.Sub(prev))
			if !retargeted.IsZero() {
				out.retarget.add(direction, now.Sub(retargeted))
				retargeted = time.Time{}
			}
			prev = now
			out.epochs++
			if rounds == 0 && ep < fleetRecorded {
				rec.Members = append([]cluster.MemberGrant(nil), rec.Members...)
				first = append(first, rec)
			}
			if cerr := st.checkRecord(rec); cerr != nil {
				out.op(fmt.Errorf("cluster_local8: %w", cerr))
			}
		}
		if rounds == 0 {
			st.fidelityFrom(out, "cluster_local8", first)
		}
		// Every round starts from a collected heap, as a process of its
		// own would: peak_rss_mb is then one round's memory, and not a
		// matter of where in the last round's garbage the collector stood.
		runtime.GC()
	}
	out.wall = time.Since(start)
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		out.setLayer("cluster.alloc_b_per_epoch", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(out.epochs))
		out.setLayer("cluster.new_us", newNs/1e3/float64(rounds))
	}
	return out, nil
}

func clusterRun(e *env, state any) (*outcome, error) {
	st := state.(*fleetState)
	out, err := st.clusterPass(e, e.tr, 0)
	if err != nil || e.tr == nil {
		return out, err
	}
	// One worker, for a quarter of the time: with the members stepped
	// one after the other, the coordinator's own time is exactly the
	// Step minus its members' steps.
	w1 := *e
	w1.seconds = e.seconds / 4
	tr1 := newTracer()
	o1, err := st.clusterPass(&w1, tr1, 1)
	if err != nil {
		return nil, err
	}
	lg := buildLedger(tr1.all())
	out.setLayer("cluster.step_us_per_epoch.w1", lg.Dur[layerCluster][opEpoch]/1e3/float64(o1.epochs))
	out.setLayer("cluster.step_self_us_per_epoch", lg.Self[layerCluster]/1e3/float64(o1.epochs))
	out.attempted += o1.attempted
	out.failed += o1.failed
	out.failures = append(out.failures, o1.failures...)
	return out, nil
}

// dist_simnet8 -----------------------------------------------------------

const (
	// distRunEpochs is the length of one fleet run; the workload repeats
	// runs until the deadline.
	distRunEpochs = 2000
	// distBudgetEvery: the follower alternates the global budget ±10%
	// every so many records it has seen.
	distBudgetEvery = 100
)

type distSpec struct {
	Machine int `json:"machine"`
	Probe   int `json:"probe"`
}

func distRun(e *env, state any) (*outcome, error) {
	st := state.(*fleetState)
	out := &outcome{}
	var frames int64
	var bytes float64
	var ms0, ms1 runtime.MemStats
	if e.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	deadline := e.deadline()
	for run := 0; run == 0 || time.Now().Before(deadline); run++ {
		net := dist.NewSimNet(dist.SimConfig{Seed: st.netSeed + int64(run)})
		co, err := dist.NewCoordinator(dist.Config{BudgetW: st.budgetW, Expect: fleetMembers,
			Arbiter: cluster.NewSlackReclaim(), MaxEpochs: distRunEpochs + 1})
		if err != nil {
			return nil, err
		}
		build := func(raw json.RawMessage) (*runner.Session, error) {
			var sp distSpec
			if err := json.Unmarshal(raw, &sp); err != nil {
				return nil, err
			}
			p := newProbe(e.tr, sp.Probe, layerReplay, true)
			ses, _, err := st.machines[sp.Machine].session(distRunEpochs, p)
			return ses, err
		}
		for a := 0; a < 2; a++ {
			name := fmt.Sprintf("a%d", a)
			var specs []dist.MemberSpec
			for k := a * 4; k < a*4+4; k++ {
				raw, _ := json.Marshal(distSpec{Machine: k, Probe: run*fleetMembers + k}) // a struct of two ints cannot fail
				specs = append(specs, dist.MemberSpec{ID: fleetMemberID(k), Spec: raw})
			}
			ag, err := dist.NewAgent(dist.AgentConfig{Name: name, Members: specs, Build: build,
				Send: net.Sender(name), Clock: net.Clock(name)})
			if err != nil {
				return nil, err
			}
			net.Register(name, ag.Handle, nil)
			ag.Start()
		}

		// The follower is the workload's caller: it waits for each
		// record, as a stream consumer would, and retargets the budget.
		var first []cluster.EpochRecord
		var wg sync.WaitGroup
		wg.Add(1)
		fo := &outcome{}
		go func() {
			defer wg.Done()
			var prev, retargeted time.Time
			direction := 0 // of the last budget change: a raise and a cut cost differently
			var wantW float64
			for cursor := 0; ; cursor++ {
				rec, err := co.NextRecord(context.Background(), cursor)
				if errors.Is(err, io.EOF) {
					return
				}
				if !fo.op(err) {
					return
				}
				now := time.Now()
				if cursor > 0 { // the first record waits for the agents to join
					fo.epoch.add(0, now.Sub(prev))
				}
				prev = now
				fo.epochs++
				if !retargeted.IsZero() && rec.BudgetW == wantW {
					fo.retarget.add(direction, now.Sub(retargeted))
					retargeted = time.Time{}
				}
				if cursor < fleetRecorded {
					first = append(first, rec)
				}
				if len(rec.Members) != fleetMembers {
					fo.op(fmt.Errorf("dist_simnet8: epoch %d has %d of %d members reporting", rec.Epoch, len(rec.Members), fleetMembers))
				}
				if cerr := st.checkRecord(rec); cerr != nil {
					fo.op(fmt.Errorf("dist_simnet8: %w", cerr))
				}
				if n := cursor + 1; n%distBudgetEvery == 0 && n < distRunEpochs {
					wantW = st.budgetW * 1.1
					if direction = n / distBudgetEvery % 2; direction == 0 {
						wantW = st.budgetW * 0.9
					}
					retargeted = time.Now()
					fo.op(co.SetBudgetW(wantW))
				}
			}
		}()
		tp := newCountingTransport(net, e.tr)
		var tr dist.Transport = net
		if e.tr != nil {
			tr = tp
		}
		err = co.Run(tr)
		tp.closeEpoch()
		wg.Wait()
		frames += tp.frames
		bytes += tp.bytesTotal()
		out.op(err)
		out.merge(fo)

		var cerr error
		if fo.epochs != distRunEpochs {
			cerr = fmt.Errorf("dist_simnet8: run %d finished %d of %d epochs", run, fo.epochs, distRunEpochs)
		}
		out.op(cerr)
		for _, ev := range co.Events() {
			if ev.Type != "join" {
				out.op(fmt.Errorf("dist_simnet8: run %d: %s of %s at epoch %d (%s)", run, ev.Type, ev.Member, ev.Epoch, ev.Reason))
			}
		}
		if run == 0 {
			st.fidelityFrom(out, "dist_simnet8", first)
		}
		runtime.GC() // as in cluster_local8: every run starts from a collected heap
	}
	out.wall = time.Since(start)
	if e.tr != nil {
		runtime.ReadMemStats(&ms1)
		ep := float64(out.epochs)
		out.setLayer("dist.alloc_b_per_epoch", float64(ms1.TotalAlloc-ms0.TotalAlloc)/ep)
		out.setLayer("dist.frames_per_epoch", float64(frames)/ep)
		out.setLayer("dist.bytes_per_epoch", bytes/ep)
	}
	return out, nil
}
