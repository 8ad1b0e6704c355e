package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/stats"
)

// summary is one metric of one workload over the runs of a set.
type summary struct {
	metricSpec
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	// Spread is the distance between the first and third quartile as a
	// share of the median (0 with fewer than two runs).
	Spread float64 `json:"spread"`
	// Paper is the paper's own figure for the row, where it gives one.
	Paper float64 `json:"paper,omitempty"`
}

func summarize(spec metricSpec, vs []float64) summary {
	return summary{metricSpec: spec, Median: median(vs), Min: stats.Min(vs), Max: stats.Max(vs), N: len(vs), Spread: quartileSpread(vs)}
}

// workloadReport is everything one set measured on one workload.
type workloadReport struct {
	Workload  string    `json:"workload"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	EndToEnd  []summary `json:"end_to_end"`
	PerLayer  []summary `json:"per_layer,omitempty"`
}

func (r *workloadReport) metric(name string) (summary, bool) {
	for _, s := range append(r.EndToEnd, r.PerLayer...) {
		if s.Name == name {
			return s, true
		}
	}
	return summary{}, false
}

// report is the machine-readable output of a full run.
type report struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	Commit     string           `json:"commit"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Repeat     int              `json:"repeat"`
	Workloads  []workloadReport `json:"workloads"`
}

// commit returns the revision the binary was built from, as the Go
// toolchain stamped it ("+dirty" when the tree had changes).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// runChild runs one pass in a fresh process — so that peak_rss_mb and
// the process-wide baseline cache do not leak between workloads — echoes
// what it prints, and returns the result on its last line.
func runChild(exe, workload string, seed int64, seconds float64, traced bool) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s (trace %s, seed %d): %w", workload, trace, seed, err)
	}
	lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(" ", l)
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return result{}, fmt.Errorf("%s (trace %s): last line is not a result: %w", workload, trace, err)
	}
	return res, nil
}

// runSet measures the selected workloads once: repeat untraced runs
// each, with consecutive seeds, and (when traced) one traced run.
func runSet(exe string, selected []workloadSpec, seed int64, seconds float64, repeat int, traced bool) ([]workloadReport, error) {
	var out []workloadReport
	for _, w := range selected {
		fmt.Printf("== %s\n", w.Name)
		wr := workloadReport{Workload: w.Name}
		values := map[string][]float64{}
		for r := 0; r < repeat; r++ {
			res, err := runChild(exe, w.Name, seed+int64(r), seconds, false)
			if err != nil {
				return nil, err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, spec := range endToEnd {
			wr.EndToEnd = append(wr.EndToEnd, summarize(spec, values[spec.Name]))
		}
		if traced {
			res, err := runChild(exe, w.Name, seed, seconds, true)
			if err != nil {
				return nil, err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for _, spec := range perLayer {
				s := summarize(spec, []float64{res.Metrics[spec.Name].Value})
				var n int
				if _, err := fmt.Sscanf(spec.Name, "policy.decide_us.n%d", &n); err == nil {
					s.Paper = paperDecideUs[n]
				}
				wr.PerLayer = append(wr.PerLayer, s)
			}
		}
		out = append(out, wr)
	}
	return out, nil
}

// printTable mirrors result.json as an aligned table.
func printTable(reports []workloadReport) {
	row := func(s summary, bounded bool) {
		bound, paper := "", ""
		if bounded {
			bound = fmt.Sprintf("%.0f%%", 100*s.Bound)
		}
		if s.Paper > 0 {
			paper = fmt.Sprintf("  paper: %g %s", s.Paper, s.Unit)
		}
		fmt.Printf("  %-38s %-6s %-6s %5s %14.6g %14.6g %14.6g %3d %7.2f%%%s\n",
			s.Name, s.Unit, s.Better, bound, s.Median, s.Min, s.Max, s.N, 100*s.Spread, paper)
	}
	for _, wr := range reports {
		fmt.Printf("\n%s: %d operations and checks attempted, %d failed\n", wr.Workload, wr.Attempted, wr.Failed)
		fmt.Printf("  %-38s %-6s %-6s %5s %14s %14s %14s %3s %8s\n", "metric", "unit", "better", "bound", "median", "min", "max", "n", "spread")
		for _, s := range wr.EndToEnd {
			row(s, true)
		}
		for _, s := range wr.PerLayer {
			row(s, false)
		}
	}
}

// printStack prints the ROADMAP's north-star stacks: the same work
// pushed through one more layer per row, each layer's cost being its
// delta over the row beneath. Rows whose workload was not run are left
// out.
func printStack(reports []workloadReport) {
	type rung struct {
		label, workload, metric string
		// toUs converts the metric's median to microseconds per epoch.
		toUs func(v float64) float64
	}
	us := func(v float64) float64 { return v }
	ms := func(v float64) float64 { return v * 1e3 }
	// A closed loop of nproc clients keeps nproc workers busy, so one
	// worker's time per epoch is nproc over the throughput.
	perWorker := func(v float64) float64 { return float64(runtime.NumCPU()) * 1e6 / v }
	show := func(title string, rungs []rung) {
		prev, shown := 0.0, false
		for _, r := range rungs {
			var s summary
			ok := false
			for i := range reports {
				if reports[i].Workload == r.workload {
					s, ok = reports[i].metric(r.metric)
				}
			}
			if !ok || s.N == 0 || s.Median == 0 {
				continue
			}
			if !shown {
				fmt.Printf("\n%s\n", title)
				shown = true
			}
			v := r.toUs(s.Median)
			fmt.Printf("  %-64s %12.1f us  (%+.1f)\n", r.label, v, v-prev)
			prev = v
		}
	}
	show("stack of one control epoch: MIX3, 16 cores, 1 ms epoch", []rung{
		{"policy.Decide on a synthetic snapshot (paper: 33.5 us)", "ctl_replay", "policy.decide_us.n16", us},
		{"Session.Step over the recorded machine", "ctl_replay", "runner.step_us_per_epoch.n16", us},
		{"Session.Step over the live simulator", "sim_mix16", "sim.host_us_per_epoch.MIX3", us},
	})
	show("stack of one served epoch: serve_mix16's tenants, per worker", []rung{
		{"Session.Step, tenants stepped solo", "serve_mix16", "serve.solo_us_per_epoch", us},
		{"serve.Manager epoch, no HTTP", "serve_mix16", "serve.manager_epochs_per_s", perWorker},
		{"HTTP-streamed epoch", "serve_mix16", "epochs_per_s", perWorker},
	})
	show("stack of one cluster epoch: 8 replay-backed members", []rung{
		{"cluster.Coordinator.Step", "cluster_local8", "epoch_p50_ms", ms},
		{"dist.Coordinator.Run over SimNet", "dist_simnet8", "epoch_p50_ms", ms},
	})
}

// agreement compares two sets of runs of the same code: every
// end-to-end median of the second must be within the metric's bound of
// the first's, in either direction, and every spread but setup_s's
// within the bound too. It returns what did not agree.
func agreement(a, b []workloadReport) []string {
	var bad []string
	for i := range a {
		for j, sa := range a[i].EndToEnd {
			sb := b[i].EndToEnd[j]
			if !withinBound(sa.Better, sa.Bound, sa.Median, sb.Median) || !withinBound(sa.Better, sa.Bound, sb.Median, sa.Median) {
				bad = append(bad, fmt.Sprintf("%s %s: medians %g and %g differ by more than %.0f%%", a[i].Workload, sa.Name, sa.Median, sb.Median, 100*sa.Bound))
			}
			if sa.Name == "setup_s" {
				continue
			}
			for _, s := range []summary{sa, sb} {
				if s.Spread > s.Bound {
					bad = append(bad, fmt.Sprintf("%s %s: spread %.1f%% over %d runs exceeds the bound %.0f%%", a[i].Workload, s.Name, 100*s.Spread, s.N, 100*s.Bound))
				}
			}
		}
	}
	return bad
}

// parent is the full mode: every selected workload, each pass in a
// child process of its own.
func parent(only string, seed int64, seconds float64, repeat int, agree bool) error {
	selected := workloads
	if only != "" {
		w, ok := workloadByName(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		selected = []workloadSpec{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	first, err := runSet(exe, selected, seed, seconds, repeat, true)
	if err != nil {
		return err
	}
	printTable(first)
	printStack(first)

	rep := report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Commit: commit(), Seed: seed, Seconds: seconds, Repeat: repeat, Workloads: first}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%s, GOMAXPROCS %d of %d CPUs, commit %s)\n", path, rep.GoVersion, rep.GOMAXPROCS, rep.NProc, rep.Commit)

	failed := 0
	for _, wr := range first {
		failed += wr.Failed
	}
	var disagreements []string
	if agree {
		fmt.Println("\n== second set")
		second, err := runSet(exe, selected, seed, seconds, repeat, false)
		if err != nil {
			return err
		}
		printTable(second)
		for _, wr := range second {
			failed += wr.Failed
		}
		disagreements = agreement(first, second)
		for _, d := range disagreements {
			fmt.Println("disagree:", d)
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d operations or output checks failed", failed)
	case len(disagreements) > 0:
		return fmt.Errorf("%d end-to-end metrics did not agree between two sets of runs of the same code", len(disagreements))
	}
	return nil
}
