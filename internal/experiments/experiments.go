// Package experiments encodes every table and figure of the FastCap
// paper's evaluation (§IV) as a reproducible experiment: each function
// assembles the workloads, policies and machine configuration of one
// figure, runs the simulation, and returns the same rows/series the
// paper plots. The cmd/fastcap-tables binary and the repository-level
// benchmarks are thin wrappers over this package.
//
// Independent runs within a figure execute concurrently on a bounded
// worker pool (Options.Workers); results are keyed by submission index
// and reassembled in submission order, so output is byte-identical to a
// serial execution for the same seeds (see DESIGN.md, "Parallel
// experiment engine").
//
// Run lengths are scaled down from the paper's 100M-instruction
// SimPoints (see DESIGN.md): the default exercises every mechanism at
// reduced wall-clock cost, and Options lets callers raise fidelity.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options control experiment fidelity. Zero values take defaults.
type Options struct {
	// Cores for the default system (figures that fix their own core
	// count ignore this). Default 16.
	Cores int
	// Epochs per run. Default 20.
	Epochs int
	// EpochNs is the epoch length. Default 1 ms (the paper uses 5 ms;
	// steady-state behaviour is unchanged, wall-clock cost is 5× lower —
	// pass 5e6 to match the paper exactly).
	EpochNs float64
	// ProfileNs is the profiling window. Default
	// sim.ProfileWindowNs(EpochNs): a tenth, capped at 300 µs.
	ProfileNs float64
	// MixesPerClass bounds how many Table III mixes represent each class
	// in the multi-configuration sweeps (Figs. 12–13). Default 2.
	MixesPerClass int
	// Seed for the simulator RNGs.
	Seed int64
	// Workers bounds how many experiment runs execute concurrently.
	// Default runtime.GOMAXPROCS(0); 1 forces serial execution. Output
	// is identical at any worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Cores <= 0 {
		o.Cores = 16
	}
	if o.Epochs <= 0 {
		o.Epochs = 20
	}
	if o.EpochNs <= 0 {
		o.EpochNs = 1e6
	}
	if o.ProfileNs <= 0 {
		o.ProfileNs = sim.ProfileWindowNs(o.EpochNs)
	}
	if o.MixesPerClass <= 0 {
		o.MixesPerClass = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// SimConfig builds the machine configuration for n cores. Zero-valued
// options take their defaults, so the method is safe on hand-built
// Options values as well as Lab-owned ones.
func (o Options) SimConfig(n int) sim.Config {
	o = o.withDefaults()
	cfg := sim.DefaultConfig(n)
	cfg.EpochNs = o.EpochNs
	cfg.ProfileNs = o.ProfileNs
	cfg.Seed = o.Seed
	return cfg
}

// baselineCall is one singleflight cache slot: the first goroutine to
// claim the slot simulates the baseline; everyone else blocks on the
// same Once and shares the result.
type baselineCall struct {
	once sync.Once
	res  *runner.Result
	err  error
}

// Lab runs experiments and caches all-max baselines so that figures
// sharing a configuration do not re-simulate them. A Lab is safe for
// concurrent use: figures may run in parallel and share the baseline
// cache; each baseline is simulated exactly once.
type Lab struct {
	Opt Options
	// Progress, if non-nil, receives one line per completed run. Calls
	// are serialized by the Lab, but with Workers > 1 the line order is
	// scheduling-dependent (results are not).
	Progress func(msg string)

	mu        sync.Mutex
	baselines map[string]*baselineCall
	logMu     sync.Mutex
}

// NewLab builds a Lab with defaulted options.
func NewLab(o Options) *Lab {
	return &Lab{Opt: o.withDefaults(), baselines: map[string]*baselineCall{}}
}

func (l *Lab) log(format string, args ...any) {
	if l.Progress != nil {
		l.logMu.Lock()
		l.Progress(fmt.Sprintf(format, args...))
		l.logMu.Unlock()
	}
}

// parallelFor runs job(0) … job(n-1) on the Lab's worker pool and
// blocks until all started jobs complete. Jobs must write their outputs
// to their own index of a caller-owned slice; submission order is
// therefore the output order regardless of scheduling.
//
// On failure, jobs not yet started are skipped and the error of the
// lowest-indexed failing job is returned. That error is deterministic:
// workers claim indices in order, so by the time any job fails, every
// lower-indexed job has already started and will record its own
// outcome — the minimum failing index is always observed.
func (l *Lab) parallelFor(n int, job func(i int) error) error {
	if n == 0 {
		return nil
	}
	workers := l.Opt.withDefaults().Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := int64(-1)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := job(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run executes one policy run (no baseline).
func (l *Lab) run(mix workload.MixSpec, cfg sim.Config, frac float64, pol policy.Policy) (*runner.Result, error) {
	res, err := runner.Run(runner.Config{
		Sim: cfg, Mix: mix, BudgetFrac: frac, Epochs: l.Opt.Epochs, Policy: pol,
	})
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", mix.Name, pol.Name(), err)
	}
	l.log("ran %-5s %-10s budget=%.0f%%  avg=%.1fW peak=%.0fW", mix.Name, pol.Name(), frac*100, res.AvgPowerW(), res.PeakW)
	return res, nil
}

// baseline returns the cached all-max run for (mix, cfg), simulating it
// at most once even when figures race for the same key (singleflight).
func (l *Lab) baseline(mix workload.MixSpec, cfg sim.Config) (*runner.Result, error) {
	machine := ""
	if cfg.Machine != nil {
		// Key by content, not name: unnamed or name-colliding specs must
		// not share another machine's all-max baseline.
		machine = cfg.Machine.Fingerprint()
	}
	key := fmt.Sprintf("%s/n%d/ooo%v/ctl%d/skew%v/e%d/len%g/mach%s",
		mix.Name, cfg.Cores, cfg.OoO, cfg.Controllers, cfg.SkewedAccess, l.Opt.Epochs, cfg.EpochNs, machine)
	l.mu.Lock()
	if l.baselines == nil {
		l.baselines = map[string]*baselineCall{}
	}
	c, ok := l.baselines[key]
	if !ok {
		c = &baselineCall{}
		l.baselines[key] = c
	}
	l.mu.Unlock()
	c.once.Do(func() {
		// The process-wide cache dedups across Labs (and with the cluster
		// sweep's members); the per-Lab slot above keeps the progress log
		// at one line per Lab per configuration.
		c.res, c.err = runner.SharedBaselines.Run(runner.Config{
			Sim: cfg, Mix: mix, BudgetFrac: 1.0, Epochs: l.Opt.Epochs, Policy: nil,
		})
		if c.err != nil {
			c.err = fmt.Errorf("%s/baseline: %w", mix.Name, c.err)
			return
		}
		l.log("ran %-5s baseline            avg=%.1fW peak=%.0fW", mix.Name, c.res.AvgPowerW(), c.res.PeakW)
	})
	return c.res, c.err
}

// runPair returns (policy result, baseline result).
func (l *Lab) runPair(mix workload.MixSpec, cfg sim.Config, frac float64, pol policy.Policy) (*runner.Result, *runner.Result, error) {
	p, err := l.run(mix, cfg, frac, pol)
	if err != nil {
		return nil, nil, err
	}
	b, err := l.baseline(mix, cfg)
	if err != nil {
		return nil, nil, err
	}
	return p, b, nil
}

// newPolicy instantiates a fresh policy by name (stateful policies must
// not be shared across runs).
func newPolicy(name string) (policy.Policy, error) {
	switch name {
	case "FastCap":
		return policy.NewFastCap(), nil
	case "CPU-only":
		return policy.NewCPUOnly(), nil
	case "Freq-Par":
		return policy.NewFreqPar(), nil
	case "Eql-Pwr":
		return policy.NewEqlPwr(), nil
	case "Eql-Freq":
		return policy.NewEqlFreq(), nil
	case "MaxBIPS":
		return policy.NewMaxBIPS(), nil
	case "Greedy":
		return policy.NewGreedy(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", name)
	}
}
