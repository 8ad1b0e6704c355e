package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// env is what one pass of a workload runs under.
type env struct {
	seed    int64
	seconds float64 // length of the timed phase
	tr      *tracer // nil on the untraced pass
}

// rng returns the workload's generator: every random choice of a pass
// (the order of mixes, machines and tenant classes, the churn order, the
// SimNet seed) is drawn from it, so a seed fixes the inputs and nothing
// else does.
func (e *env) rng() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

// simSeed is the simulator seed of a workload's k-th machine. The
// simulated machines are the same on every run, whatever -seed is: the
// host cost of a controller epoch follows the recorded measurements
// (ctl_replay's throughput moved by 7% between two sets of recordings)
// and the simulated fidelity follows the simulator's own random stream
// (fairness_spread_pct moved by 13%), which is more than any bound, so
// two runs could not be compared if the machines changed with the seed.
func simSeed(k int) int64 { return int64(1 + k) }

// deadline returns when the timed phase that starts now should stop
// taking on new work.
func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

// outcome is what one pass of a workload measured.
type outcome struct {
	epochs int           // control (or cluster) epochs completed in the timed phase
	wall   time.Duration // host time of the timed phase

	// What the workload's caller waited for, in milliseconds.
	epoch    latencies // one epoch record
	retarget latencies // budget change → its effect in the caller's hands

	attempted, failed int
	// failures keeps the first few failure descriptions for the report.
	failures []string

	fid fidelity

	// layer holds the per-layer metrics this pass produced (traced
	// passes only).
	layer map[string]float64
	// ledgerUs and epochUs replace the span ledger for a workload whose
	// layers cannot be wrapped: the serving stack is measured as deltas
	// between the same tenants stepped solo and served.
	ledgerUs *[numLayers]float64
	epochUs  float64
}

// op counts one attempted operation or output check and records its
// failure, if any.
func (o *outcome) op(err error) bool {
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, err.Error())
	}
	return false
}

// merge folds a per-client outcome into o. The fidelity numbers are
// not merged: every workload feeds them once, in a fixed order, after
// its clients have finished.
func (o *outcome) merge(c *outcome) {
	o.epochs += c.epochs
	o.epoch.merge(&c.epoch)
	o.retarget.merge(&c.retarget)
	o.attempted += c.attempted
	o.failed += c.failed
	for _, f := range c.failures {
		if len(o.failures) < 5 {
			o.failures = append(o.failures, f)
		}
	}
}

func (o *outcome) setLayer(name string, v float64) {
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	o.layer[name] = v
}

// fidelity accumulates the simulated outcome of capped runs: how well
// the cap held and how the slowdown was shared. It is fed only epochs a
// live simulation produced (or a replay that reproduces one bit for
// bit), so every number is a statement about the simulated machine and
// repeats exactly for a seed.
type fidelity struct {
	peakRatio float64 // max over epochs ≥ 2 of AvgPowerW/BudgetW
	errSum    float64 // Σ |AvgPowerW − BudgetW|/BudgetW over epochs ≥ 2
	errN      int
	spreadSum float64 // Σ over runs of (max − min)/mean normalised performance
	perfSum   float64 // Σ over runs of mean normalised performance
	runs      int
}

// capEpoch feeds one epoch's measured power against its budget. The
// first two epochs are the controller's cold start (no fitted model
// yet) and are left out, as in the paper's tracking figures.
func (f *fidelity) capEpoch(epoch int, powerW, budgetW float64) {
	if epoch < 2 || budgetW <= 0 {
		return
	}
	r := powerW / budgetW
	if r > f.peakRatio {
		f.peakRatio = r
	}
	f.errSum += math.Abs(r - 1)
	f.errN++
}

// perf feeds one finished run's per-application performance, capped
// over uncapped (instructions retired under the cap as a share of the
// uncapped run's, per core).
func (f *fidelity) perf(capped, base []float64) error {
	if len(capped) != len(base) || len(base) == 0 {
		return fmt.Errorf("fidelity: %d capped cores against %d baseline cores", len(capped), len(base))
	}
	lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
	for i := range base {
		if base[i] <= 0 {
			return fmt.Errorf("fidelity: baseline core %d made no progress", i)
		}
		p := capped[i] / base[i]
		lo, hi, sum = math.Min(lo, p), math.Max(hi, p), sum+p
	}
	mean := sum / float64(len(base))
	f.spreadSum += (hi - lo) / mean
	f.perfSum += mean
	f.runs++
	return nil
}

func (f *fidelity) capPeakPct() float64 { return 100 * f.peakRatio }
func (f *fidelity) capErrorPct() float64 {
	if f.errN == 0 {
		return 0
	}
	return 100 * f.errSum / float64(f.errN)
}
func (f *fidelity) fairnessSpreadPct() float64 {
	if f.runs == 0 {
		return 0
	}
	return 100 * f.spreadSum / float64(f.runs)
}
func (f *fidelity) normPerfPct() float64 {
	if f.runs == 0 {
		return 0
	}
	return 100 * f.perfSum / float64(f.runs)
}

// budgetFrac is the cap every session workload starts under; the
// paper's headline experiments use 60% of peak.
const budgetFrac = 0.6

// simConfig is the machine the paper evaluates, at the given size and
// epoch length, with the profiling window a tenth of the epoch (as
// experiments.Options and the serving layer both set it).
func simConfig(cores int, epochMs float64, seed int64) sim.Config {
	c := sim.DefaultConfig(cores)
	c.EpochNs = epochMs * 1e6
	c.ProfileNs = c.EpochNs / 10
	c.Seed = seed
	return c
}

func mustMix(name string) workload.MixSpec {
	m, err := workload.MixByName(name)
	if err != nil {
		panic(err) // the names are constants of this program
	}
	return m
}

// runAll steps ses to its end and returns its result.
func runAll(ses *runner.Session) (*runner.Result, error) {
	for {
		if _, err := ses.Step(context.Background()); err != nil {
			if errors.Is(err, runner.ErrDone) {
				return ses.Result(), nil
			}
			return nil, err
		}
	}
}

// sumInstr returns the per-core instructions retired over the first n
// epochs of a run.
func sumInstr(epochs []runner.EpochRecord, n int) []float64 {
	if n > len(epochs) {
		n = len(epochs)
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, len(epochs[0].Instr))
	for _, e := range epochs[:n] {
		for i, v := range e.Instr {
			out[i] += v
		}
	}
	return out
}

// machine is one recorded machine: the configuration a session over it
// needs, the measurement windows of a capped run captured from the live
// simulator, and the uncapped run's per-core instruction counts over the
// same epochs.
type machine struct {
	name      string
	cfg       runner.Config // capped, FastCap, Epochs = recorded length
	rec       *replay.Recording
	baseInstr []float64
}

// record simulates cfg capped (capturing every measurement window) and
// uncapped, once each.
func record(name string, cfg runner.Config) (*machine, error) {
	var rec *replay.Recorder
	cfg.Policy = policy.NewFastCap()
	ses, err := runner.NewSession(cfg, runner.WithPlatformWrap(func(p runner.Platform) runner.Platform {
		rec = replay.NewRecorder(p)
		return rec
	}))
	if err != nil {
		return nil, fmt.Errorf("recording %s: %w", name, err)
	}
	if _, err := runAll(ses); err != nil {
		return nil, fmt.Errorf("recording %s: %w", name, err)
	}
	bcfg := cfg
	bcfg.Policy, bcfg.BudgetFrac = nil, 1
	base, err := runner.Run(bcfg)
	if err != nil {
		return nil, fmt.Errorf("baseline of %s: %w", name, err)
	}
	cfg.Policy = nil // each replayed session gets its own instance
	return &machine{name: name, cfg: cfg, rec: rec.Recording(),
		baseInstr: sumInstr(base.Epochs, len(base.Epochs))}, nil
}

// session builds a session of the given length over a fresh replay of
// the recording. Playback wraps around, so the session may run longer
// than the recording.
func (m *machine) session(epochs int, p *sessionProbe, extra ...runner.SessionOption) (*runner.Session, *replay.Platform, error) {
	plat, err := replay.New(m.rec)
	if err != nil {
		return nil, nil, err
	}
	cfg := m.cfg
	cfg.Epochs = epochs
	cfg.Policy = p.policy(policy.NewFastCap())
	opts := append([]runner.SessionOption{runner.WithPlatform(plat)}, p.options()...)
	ses, err := runner.NewSession(cfg, append(opts, extra...)...)
	return ses, plat, err
}

// sameDecisions checks that the decisions a replayed session issued
// over its first pass equal the ones recorded from the live simulator:
// the controller is deterministic, so a replay under the recorded
// budget must reproduce the simulated run bit for bit — which is what
// lets the fidelity numbers of a replay-backed workload speak for the
// simulated machine.
func (m *machine) sameDecisions(applied []replay.Epoch) error {
	n := len(m.rec.Epochs)
	if len(applied) < n {
		return fmt.Errorf("%s: %d decisions replayed, recording has %d", m.name, len(applied), n)
	}
	for e := 0; e < n; e++ {
		want, got := m.rec.Epochs[e], applied[e]
		if want.MemStep != got.MemStep || len(want.CoreSteps) != len(got.CoreSteps) {
			return fmt.Errorf("%s: epoch %d replayed mem step %d, recorded %d", m.name, e, got.MemStep, want.MemStep)
		}
		for i := range want.CoreSteps {
			if want.CoreSteps[i] != got.CoreSteps[i] {
				return fmt.Errorf("%s: epoch %d core %d replayed step %d, recorded %d", m.name, e, i, got.CoreSteps[i], want.CoreSteps[i])
			}
		}
	}
	return nil
}
