// fastcap-sim runs one Table III workload under one capping policy on
// the simulated many-core server and prints the per-epoch power/DVFS
// series plus a performance summary against the all-max baseline.
//
// The run is driven through the step-wise session API (runner.Session);
// with -stream, each epoch's record is printed the moment the epoch
// completes instead of as a post-run table — the mode a monitoring
// pipeline would consume.
//
// Example:
//
//	fastcap-sim -mix MIX3 -policy FastCap -budget 0.6 -cores 16 -epochs 40
//	fastcap-sim -mix MIX3 -stream            # live per-epoch telemetry
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		mixName   = flag.String("mix", "MIX3", "Table III workload name (ILP1..MIX4)")
		polName   = flag.String("policy", "FastCap", "policy: FastCap|CPU-only|Freq-Par|Eql-Pwr|Eql-Freq|MaxBIPS|Greedy|baseline")
		budget    = flag.Float64("budget", 0.60, "power budget as a fraction of peak")
		cores     = flag.Int("cores", 16, "number of cores (multiple of 4)")
		epochs    = flag.Int("epochs", 40, "epochs to simulate")
		epochMs   = flag.Float64("epoch-ms", 1.0, "epoch length in milliseconds (paper: 5)")
		ooo       = flag.Bool("ooo", false, "idealized out-of-order cores")
		ctls      = flag.Int("controllers", 1, "memory controllers")
		skew      = flag.Bool("skew", false, "skewed controller access distribution")
		seed      = flag.Int64("seed", 1, "simulation seed")
		perEpoch  = flag.Bool("series", true, "print the per-epoch series")
		stream    = flag.Bool("stream", false, "stream each epoch's record as it completes (NDJSON to stdout)")
		noBaselin = flag.Bool("no-baseline", false, "skip the baseline run (no normalized perf)")
		jsonPath  = flag.String("json", "", "also write the full result record as JSON to this file ('-' = stdout)")
	)
	flag.Parse()
	// Keep the Go runtime from killing the process with SIGPIPE when a
	// -stream consumer (head, a disconnected pipe) goes away: with the
	// signal ignored, writes return EPIPE as an ordinary error and the
	// run winds down cleanly at the next epoch boundary.
	signal.Ignore(syscall.SIGPIPE)
	if err := run(*mixName, *polName, *budget, *cores, *epochs, *epochMs, *ooo, *ctls, *skew, *seed, *perEpoch, *stream, *noBaselin, *jsonPath); err != nil {
		if errors.Is(err, syscall.EPIPE) {
			return // closed pipe: the consumer has everything it wanted
		}
		fmt.Fprintln(os.Stderr, "fastcap-sim:", err)
		os.Exit(1)
	}
}

func pickPolicy(name string) (policy.Policy, error) {
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
	case "baseline":
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// streamRecord is the NDJSON shape emitted per epoch under -stream.
type streamRecord struct {
	Epoch     int     `json:"epoch"`
	PowerW    float64 `json:"power_w"`
	PowerNorm float64 `json:"power_norm"`
	BudgetW   float64 `json:"budget_w"`
	CoresW    float64 `json:"cores_w"`
	MemW      float64 `json:"mem_w"`
	MemMHz    float64 `json:"mem_mhz"`
}

func run(mixName, polName string, budget float64, cores, epochs int, epochMs float64, ooo bool, ctls int, skew bool, seed int64, series, stream, noBaseline bool, jsonPath string) error {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return err
	}
	pol, err := pickPolicy(polName)
	if err != nil {
		return err
	}
	sc := sim.DefaultConfig(cores)
	sc.EpochNs = epochMs * 1e6
	sc.ProfileNs = sim.ProfileWindowNs(sc.EpochNs)
	sc.OoO = ooo
	sc.Seed = seed
	if ctls > 1 {
		sc.Controllers = ctls
		sc.BanksPerController = sc.BanksPerController / ctls
		sc.SkewedAccess = skew
	}
	cfg := runner.Config{Sim: sc, Mix: mix, BudgetFrac: budget, Epochs: epochs, Policy: pol}

	var opts []runner.SessionOption
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streamErr error
	if stream {
		if jsonPath == "-" {
			return fmt.Errorf("-json - conflicts with -stream: stdout carries the NDJSON stream; write the result record to a file")
		}
		enc := json.NewEncoder(os.Stdout)
		opts = append(opts, runner.WithObserver(func(e runner.EpochRecord) {
			err := enc.Encode(streamRecord{
				Epoch:     e.Epoch,
				PowerW:    e.AvgPowerW,
				PowerNorm: e.AvgPowerW / e.PeakW,
				BudgetW:   e.BudgetW,
				CoresW:    e.CoresW,
				MemW:      e.MemW,
				MemMHz:    sc.MemLadder.Freq(e.MemStep) * 1000,
			})
			// A dead consumer (EPIPE etc.) aborts the run at the next
			// epoch boundary instead of simulating into the void.
			if err != nil && streamErr == nil {
				streamErr = err
				cancel()
			}
		}))
	}
	ses, err := runner.NewSession(cfg, opts...)
	if err != nil {
		return err
	}
	// In stream mode stdout carries pure NDJSON; the human summary goes
	// to stderr so the stream stays machine-consumable.
	out := io.Writer(os.Stdout)
	if stream {
		out = os.Stderr
	}
	err = finish(ctx, out, ses, cfg, series && !stream, noBaseline, jsonPath)
	if streamErr != nil {
		if errors.Is(streamErr, syscall.EPIPE) {
			// The consumer closed the stream; that ends the run, it does
			// not fail it. Skip the summary — nobody is reading stdout —
			// and exit zero.
			return streamErr
		}
		return fmt.Errorf("streaming telemetry: %w", streamErr)
	}
	return err
}

// finish drives the session to completion and prints the summary.
func finish(ctx context.Context, out io.Writer, ses *runner.Session, cfg runner.Config, series, noBaseline bool, jsonPath string) error {
	mix, sc := cfg.Mix, cfg.Sim
	for {
		if _, err := ses.Step(ctx); err != nil {
			if errors.Is(err, runner.ErrDone) {
				break
			}
			return err
		}
	}
	res := ses.Result()
	if jsonPath != "" {
		if err := writeJSON(jsonPath, res); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "workload %s on %d cores (%s), policy %s, budget %.0f%% of %.0f W peak\n\n",
		mix.Name, sc.Cores, mode(sc.OoO), res.PolicyName, cfg.BudgetFrac*100, res.PeakW)

	if series {
		tbl := &report.Table{
			Title:   "Per-epoch series",
			Headers: []string{"epoch", "power W", "power/peak", "cores W", "mem W", "mem MHz"},
		}
		for _, e := range res.Epochs {
			tbl.AddRow(
				fmt.Sprint(e.Epoch),
				report.F(e.AvgPowerW, 1),
				report.F(e.AvgPowerW/res.PeakW, 3),
				report.F(e.CoresW, 1),
				report.F(e.MemW, 1),
				report.F(sc.MemLadder.Freq(e.MemStep)*1000, 0),
			)
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "run-average power: %.1f W (%.1f%% of peak; budget %.1f W)\n",
		res.AvgPowerW(), res.AvgPowerW()/res.PeakW*100, res.BudgetW)
	fmt.Fprintf(out, "max epoch power:   %.1f W (%.1f%% of peak)\n",
		res.MaxEpochPowerW(), res.MaxEpochPowerW()/res.PeakW*100)

	if cfg.Policy == nil || noBaseline {
		return nil
	}
	bcfg := cfg
	bcfg.Policy = nil
	base, err := runner.Run(bcfg)
	if err != nil {
		return err
	}
	norm, err := res.NormalizedPerf(base)
	if err != nil {
		return err
	}
	s := stats.SummarizePerf(norm)
	fmt.Fprintf(out, "\nnormalized performance vs all-max baseline (1.0 = no loss):\n")
	fmt.Fprintf(out, "  average %.3f   worst %.3f   Jain fairness %.3f\n", s.Avg, s.Worst, s.Jain)
	wl, err := workload.Instantiate(mix, sc.Cores)
	if err != nil {
		return err
	}
	tbl := &report.Table{Headers: []string{"core", "app", "norm perf"}}
	for i, v := range norm {
		tbl.AddRow(fmt.Sprint(i), wl.Apps[i].Name, report.F(v, 3))
	}
	fmt.Fprintln(out)
	return tbl.Render(out)
}

// writeJSON serializes the run record for downstream tooling (plots,
// regression tracking).
func writeJSON(path string, res *runner.Result) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func mode(ooo bool) string {
	if ooo {
		return "out-of-order"
	}
	return "in-order"
}
