// Command benchmark is this repository's performance benchmark: six
// named workloads, the end-to-end metrics a caller of each sees, and a
// per-layer ledger taken from outside through the layers' public
// functions. See README.md in this directory.
//
//	go run ./benchmark -seed 1            # every workload, untraced then traced
//	go run ./benchmark -workload ctl_replay
//	go run ./benchmark -repeat 10 -agree  # two sets of ten seeds, compared against the bounds
//
// With -trace 0 or -trace 1 it runs one pass of one workload in this
// process and prints one JSON object as its last line — the form the
// benchmark driver (BENCHMARK.json) and this command's own full mode
// call it in.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir is where a run leaves its trace and result files, relative to
// the repository root the command is run from.
const outDir = "benchmark/out"

// setups is how many times a run sets its workload up: setup_s is the
// median, and the last set-up is the one that runs.
const setups = 3

func main() {
	var (
		seed     = flag.Int64("seed", 1, "seed of the workload generator")
		workload = flag.String("workload", "", "run only this workload")
		repeat   = flag.Int("repeat", 1, "runs per workload, each with the next seed; reports median, min and max")
		agree    = flag.Bool("agree", false, "run two sets and fail if an end-to-end median differs by more than its bound")
		seconds  = flag.Float64("seconds", 10, "length of one timed phase")
		trace    = flag.Int("trace", -1, "run one pass in this process: 0 untraced (end-to-end metrics), 1 traced (per-layer metrics)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *trace >= 0 {
		err = child(*workload, *seed, *seconds, *trace == 1)
	} else {
		err = parent(*workload, *seed, *seconds, *repeat, *agree)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a pass prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// child runs one pass of one workload in this process.
func child(name string, seed int64, seconds float64, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res result
	var err error
	if traced {
		res, err = tracedPass(w, seed, seconds)
	} else {
		res, err = untracedPass(w, seed, seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupAndRun sets w up n times, runs the last set-up, and returns the
// outcome and the set-up times.
func setupAndRun(w workloadSpec, e *env, n int) (*outcome, []float64, error) {
	var times []float64
	var state any
	for i := 0; i < n; i++ {
		if state != nil && w.discard != nil {
			w.discard(state)
		}
		start := time.Now()
		var err error
		if state, err = w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	out, err := w.run(e, state)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if out.epochs == 0 {
		return nil, nil, fmt.Errorf("%s: no epoch completed: %v", w.Name, out.failures)
	}
	return out, times, nil
}

func untracedPass(w workloadSpec, seed int64, seconds float64) (result, error) {
	e := &env{seed: seed, seconds: seconds}
	out, setupTimes, err := setupAndRun(w, e, setups)
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{
		"setup_s":             median(setupTimes),
		"epochs_per_s":        float64(out.epochs) / out.wall.Seconds(),
		"peak_rss_mb":         rss,
		"cap_peak_pct":        out.fid.capPeakPct(),
		"cap_error_pct":       out.fid.capErrorPct(),
		"fairness_spread_pct": out.fid.fairnessSpreadPct(),
		"norm_perf_pct":       out.fid.normPerfPct(),
	}
	fmt.Printf("%s seed %d: %d epochs in %.3f s; %d operations and checks attempted, %d failed\n",
		w.Name, seed, out.epochs, out.wall.Seconds(), out.attempted, out.failed)
	for _, f := range out.failures {
		fmt.Println("  failed:", f)
	}
	for _, p := range []struct {
		name string
		l    *latencies
		p    float64
	}{
		{"epoch_p50_ms", &out.epoch, 0.5}, {"epoch_p95_ms", &out.epoch, 0.95}, {"retarget_p50_ms", &out.retarget, 0.5},
	} {
		v, n := p.l.pct(p.p)
		vals[p.name] = v
		note := ""
		if !trusted(n, p.p) {
			note = fmt.Sprintf("  (fewer than %d samples beyond it)", minBeyond)
		}
		fmt.Printf("  %-20s n=%d%s\n", p.name, n, note)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]measurement{}}
	for _, m := range endToEnd {
		v, ok := vals[m.Name]
		if !ok || v == 0 {
			return result{}, fmt.Errorf("%s: metric %s was not produced", w.Name, m.Name)
		}
		res.Metrics[m.Name] = measurement{v, m.Unit}
	}
	return res, nil
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// spanMetrics derives the per-layer metrics that are plain span
// arithmetic: an operation's mean duration per session step, and a
// layer's self time per epoch.
func spanMetrics(lg *ledger, into map[string]float64) {
	steps := float64(lg.Count[layerRunner][opStep])
	if steps > 0 {
		into["policy.decide_us_per_epoch"] = lg.Dur[layerPolicy][opDecide] / steps / 1e3
		into["runner.step_self_us_per_epoch"] = lg.SelfOp[layerRunner][opStep] / steps / 1e3
	}
	if n := float64(lg.Count[layerSim][opRunProfile]); n > 0 {
		into["sim.run_profile_us_per_epoch"] = lg.Dur[layerSim][opRunProfile] / n / 1e3
		into["sim.apply_us_per_epoch"] = lg.Dur[layerSim][opApply] / n / 1e3
		into["sim.finish_epoch_us_per_epoch"] = lg.Dur[layerSim][opFinishEpoch] / n / 1e3
	}
	if n := float64(lg.Count[layerReplay][opRunProfile]); n > 0 {
		into["replay.self_us_per_epoch"] = lg.Self[layerReplay] / n / 1e3
	}
	if n := float64(lg.Count[layerDist][opEpoch]); n > 0 {
		into["dist.self_us_per_epoch"] = lg.Self[layerDist] / n / 1e3
	}
}

// tracedPass reports every per-layer metric. The named workload runs
// once untraced (the tracing overhead's base: the same length, because
// a workload that churns members is not stationary) and once traced;
// the traced pass's spans make the ledger and the trace file. Every
// other workload then runs traced for a tenth of the time, so that the
// layers the named workload never enters are still measured, by the
// workload that does enter them, and not reported as zero. The micro
// rows are the same on every workload.
func tracedPass(w workloadSpec, seed int64, seconds float64) (result, error) {
	base, _, err := setupAndRun(w, &env{seed: seed, seconds: seconds}, 1)
	if err != nil {
		return result{}, err
	}
	out, spans, lg, vals, err := tracedRun(w, seed, seconds)
	if err != nil {
		return result{}, err
	}
	baseUs := base.wall.Seconds() * 1e6 / float64(base.epochs)
	tracedUs := out.wall.Seconds() * 1e6 / float64(out.epochs)
	vals["trace.overhead_pct"] = 100 * (tracedUs - baseUs) / baseUs

	fmt.Printf("%s seed %d traced: %d epochs in %.3f s (%.1f us/epoch, %.1f untraced); %d spans\n",
		w.Name, seed, out.epochs, out.wall.Seconds(), tracedUs, baseUs, len(spans))
	if v := vals["trace.overhead_pct"]; v > 5 {
		fmt.Printf("  tracing cost %.1f%% of an epoch: the ledger below is suspect\n", v)
	}
	printLedger(w.Name, out, &lg)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	if err := writeTrace(filepath.Join(outDir, w.Name+".trace.json"), w.Name, spans, lg); err != nil {
		return result{}, err
	}
	spans = nil

	res := result{Attempted: out.attempted + base.attempted, Failed: out.failed + base.failed}
	failures := append(base.failures, out.failures...)
	for _, other := range workloads {
		if other.Name == w.Name {
			continue
		}
		oo, _, _, ovals, err := tracedRun(other, seed, seconds/10)
		if err != nil {
			return result{}, err
		}
		for k, v := range ovals {
			if _, have := vals[k]; !have {
				vals[k] = v
			}
		}
		res.Attempted += oo.attempted
		res.Failed += oo.failed
		failures = append(failures, oo.failures...)
	}
	runtime.GC()
	for k, v := range microSuite(batch, seed) {
		vals[k] = v
	}
	res.Correct = res.Failed == 0
	for _, f := range failures {
		fmt.Println("  failed:", f)
	}

	res.Metrics = map[string]measurement{}
	for _, m := range perLayer {
		v, ok := vals[m.Name]
		if !ok {
			return result{}, fmt.Errorf("%s: per-layer metric %s was not produced", w.Name, m.Name)
		}
		res.Metrics[m.Name] = measurement{v, m.Unit}
	}
	return res, nil
}

// tracedRun runs one traced pass of w from a collected heap, as a run of
// its own would start, and returns its outcome, its spans, their ledger
// and the per-layer values the pass produced.
func tracedRun(w workloadSpec, seed int64, seconds float64) (*outcome, []span, ledger, map[string]float64, error) {
	runtime.GC()
	tr := newTracer()
	out, _, err := setupAndRun(w, &env{seed: seed, seconds: seconds, tr: tr}, 1)
	if err != nil {
		return nil, nil, ledger{}, nil, err
	}
	spans := tr.all()
	lg := buildLedger(spans)
	vals := map[string]float64{}
	for k, v := range out.layer {
		vals[k] = v
	}
	spanMetrics(&lg, vals)
	return out, spans, lg, vals, nil
}

// printLedger prints where an epoch's host time went: self time per
// layer per epoch, summing to the epoch's wall time. Time between the
// root spans (the benchmark's own loop) is the harness row.
func printLedger(name string, out *outcome, lg *ledger) {
	epochs := float64(out.epochs)
	var us [numLayers]float64
	total := out.wall.Seconds() * 1e6 / epochs
	if out.ledgerUs != nil {
		us, total = *out.ledgerUs, out.epochUs
	} else {
		for l := range us {
			us[l] = lg.Self[l] / epochs / 1e3
		}
		us[layerHarness] += total - lg.Wall/epochs/1e3
	}
	fmt.Printf("  ledger of %s: %.2f us of host time per epoch\n", name, total)
	for l, v := range us {
		if v != 0 {
			fmt.Printf("    %-8s %12.2f us %6.1f%%\n", layerNames[l], v, 100*v/total)
		}
	}
}
