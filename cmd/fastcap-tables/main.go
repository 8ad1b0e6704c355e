// fastcap-tables regenerates every table and figure of the FastCap
// paper's evaluation section as text tables (and CSV series for the
// time-series figures). See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured comparisons.
//
// Examples:
//
//	fastcap-tables -fig 3           # just Figure 3
//	fastcap-tables -all             # everything (several minutes)
//	fastcap-tables -all -epochs 40 -epoch-ms 5 -out results/  # high fidelity
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/memsim"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	var (
		all      = flag.Bool("all", false, "regenerate every table and figure")
		figs     = flag.String("fig", "", "comma-separated figure list, e.g. 3,5,9 (12 implies 13)")
		tables   = flag.String("table", "", "comma-separated table list: 1,2,3")
		epochStu = flag.Bool("epochs-study", false, "epoch-length sensitivity study")
		overhead = flag.Bool("overhead", false, "algorithm overhead measurement")
		validate = flag.Bool("validate", false, "model-accuracy validation (power <10%, Eq.1 response)")
		ablation = flag.Bool("ablation", false, "quantization-guard ablation")
		hetero   = flag.Bool("hetero", false, "heterogeneous-machine sweep (big.LITTLE and binned cores)")
		clusterS = flag.Bool("cluster", false, "cluster-coordination sweep (budget arbitration across machines)")
		sloS     = flag.Bool("slo", false, "SLO arbitration sweep (throughput contracts on a churning fleet)")
		predS    = flag.Bool("predictive", false, "predictive arbitration sweep (forecast-driven hand-off on phase changes)")
		cacheCmp = flag.Bool("cache", false, "shared-L2 contention model vs Table III calibration")
		cores    = flag.Int("cores", 16, "default core count")
		epochs   = flag.Int("epochs", 20, "epochs per run")
		epochMs  = flag.Float64("epoch-ms", 1.0, "epoch length in ms (paper: 5)")
		mixesPC  = flag.Int("mixes-per-class", 2, "Table III mixes per class in Fig 12/13")
		outDir   = flag.String("out", "", "also write CSV outputs to this directory")
		quiet    = flag.Bool("q", false, "suppress progress lines")
		seed     = flag.Int64("seed", 1, "simulation seed")
		workers  = flag.Int("workers", 0, "concurrent runs per sweep (0 = GOMAXPROCS, 1 = serial; output is identical)")
	)
	flag.Parse()

	opt := experiments.Options{
		Cores:         *cores,
		Epochs:        *epochs,
		EpochNs:       *epochMs * 1e6,
		MixesPerClass: *mixesPC,
		Seed:          *seed,
		Workers:       *workers,
	}
	lab := experiments.NewLab(opt)
	if !*quiet {
		lab.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "  "+msg) }
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		if f != "" {
			want["fig"+f] = true
		}
	}
	for _, tb := range strings.Split(*tables, ",") {
		if tb != "" {
			want["table"+tb] = true
		}
	}
	for key, on := range map[string]bool{
		"overhead": *overhead, "validate": *validate, "ablation": *ablation,
		"hetero": *hetero, "cluster": *clusterS, "slo": *sloS, "predictive": *predS,
		"cache": *cacheCmp, "epochs-study": *epochStu,
	} {
		if on {
			want[key] = true
		}
	}
	g := &generator{lab: lab, outDir: *outDir}
	steps := []struct {
		key string
		fn  func() error
	}{
		{"table1", g.table1},
		{"table2", g.table2},
		{"table3", g.table3},
		{"fig3", g.fig3},
		{"fig4", func() error {
			return g.emitSeries("fig4.csv", "Fig. 4 — core/memory power split over time, MIX3 @ 60%", lab.Fig4, 3)
		}},
		{"fig5", func() error {
			return g.emitSeries("fig5.csv", "Fig. 5 — normalized power over time, MEM3, three budgets", lab.Fig5, 3)
		}},
		{"fig6", g.fig6},
		{"fig7", func() error {
			return g.emitSeries("fig7.csv", "Fig. 7 — core frequency (GHz) over time, budget 80%", lab.Fig7, 2)
		}},
		{"fig8", func() error {
			return g.emitSeries("fig8.csv", "Fig. 8 — memory frequency (MHz) over time, budget 80%", lab.Fig8, 0)
		}},
		{"fig9", func() error {
			return g.policyTable("Fig. 9 — FastCap vs CPU-only* vs Freq-Par* vs Eql-Pwr, budget 60%", "fig9.csv", lab.Fig9)
		}},
		{"fig10", func() error {
			return g.policyTable("Fig. 10 — FastCap vs Eql-Freq, MIX on 64 cores, budget 60%", "fig10.csv", lab.Fig10)
		}},
		{"fig11", func() error {
			return g.policyTable("Fig. 11 — FastCap vs MaxBIPS, MIX on 4 cores, budget 60%", "fig11.csv", lab.Fig11)
		}},
		{"fig12", g.fig1213},
		{"fig13", g.fig1213},
		{"overhead", g.overhead},
		{"epochs-study", g.epochStudy},
		{"validate", g.validate},
		{"ablation", g.ablation},
		{"cache", g.cacheContention},
		{"hetero", g.hetero},
		{"cluster", func() error { return g.fleet("cluster") }},
		{"slo", func() error { return g.fleet("slo") }},
		{"predictive", func() error { return g.fleet("predictive") }},
	}
	if *all {
		for _, s := range steps {
			want[s.key] = true
		}
	}
	if len(want) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	done := map[string]bool{}
	for _, s := range steps {
		if !want[s.key] || done[s.key] {
			continue
		}
		if s.key == "fig12" || s.key == "fig13" {
			done["fig12"], done["fig13"] = true, true
		}
		if err := s.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "fastcap-tables: %s: %v\n", s.key, err)
			os.Exit(1)
		}
	}
}

type generator struct {
	lab    *experiments.Lab
	outDir string
}

// writeCSV saves rows under the output directory if one was requested.
func (g *generator) writeCSV(name string, headers []string, rows [][]string) error {
	if g.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(g.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(g.outDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return report.WriteCSV(f, headers, rows)
}

// seriesRows lays series out as epoch-aligned rows, values at prec
// decimals; a series shorter than the first leaves its cells empty.
func seriesRows(series []experiments.Series, prec int) (headers []string, rows [][]string) {
	headers = []string{"epoch"}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	if len(series) == 0 {
		return headers, nil
	}
	for i := range series[0].X {
		row := []string{report.F(series[0].X[i], 0)}
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, report.F(s.Y[i], prec))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return headers, rows
}

// emitSeries runs one time-series figure, prints it at yFmt decimals
// and writes it to name at full CSV precision.
func (g *generator) emitSeries(name, title string, fig func() ([]experiments.Series, error), yFmt int) error {
	series, err := fig()
	if err != nil {
		return err
	}
	headers, rows := seriesRows(series, yFmt)
	tbl := &report.Table{Title: title, Headers: headers}
	for _, r := range rows {
		tbl.AddRow(r...)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	_, csvRows := seriesRows(series, 5)
	return g.writeCSV(name, headers, csvRows)
}

func (g *generator) table1() error {
	rows, err := experiments.Table1(200)
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Table I — measured decision latency (complexity comparison)",
		Headers: []string{"method", "cores", "mean µs", "complexity"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Method, fmt.Sprint(r.Cores), report.F(r.MeanUs, 1), r.Note)
	}
	return tbl.Render(os.Stdout)
}

func (g *generator) table2() error {
	t := memsim.DDR3()
	tbl := &report.Table{
		Title:   "Table II — main system settings (encoded configuration)",
		Headers: []string{"feature", "value"},
	}
	tbl.AddRow("CPU cores", "N in-order (or idealized OoO), 2.2–4.0 GHz, 10 steps")
	tbl.AddRow("Core voltage", "0.65–1.2 V, proportional to frequency")
	tbl.AddRow("L2 (shared)", "30 CPU-cycle hit = 7.5 ns, fixed domain")
	tbl.AddRow("Memory bus", "200–800 MHz in 66 MHz steps")
	tbl.AddRow("tRCD/tRP/tCL", fmt.Sprintf("%.0f/%.0f/%.0f ns", t.TRCD, t.TRP, t.TCL))
	tbl.AddRow("Transfer", fmt.Sprintf("%.0f bus cycles per 64 B line", t.BusCycles))
	tbl.AddRow("Channels", "4 (≤32 cores) / 8 (64 cores), 8 banks each")
	tbl.AddRow("Other power", "10 W frequency-independent (Ps)")
	return tbl.Render(os.Stdout)
}

func (g *generator) table3() error {
	tbl := &report.Table{
		Title:   "Table III — workloads (instantiated at N=16)",
		Headers: []string{"name", "MPKI", "WPKI", "applications"},
	}
	var rows [][]string
	for _, mix := range workload.TableIII {
		wl, err := workload.Instantiate(mix, 16)
		if err != nil {
			return err
		}
		apps := strings.Join([]string{mix.Apps[0], mix.Apps[1], mix.Apps[2], mix.Apps[3]}, " ")
		tbl.AddRow(mix.Name, report.F(wl.MeanMPKI(), 2), report.F(wl.MeanWPKI(), 2), apps)
		rows = append(rows, []string{mix.Name, report.F(wl.MeanMPKI(), 2), report.F(wl.MeanWPKI(), 2), apps})
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return g.writeCSV("table3.csv", []string{"name", "mpki", "wpki", "apps"}, rows)
}

func (g *generator) fig3() error {
	bars, err := g.lab.Fig3()
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Fig. 3 — FastCap average power / peak, budget 60%",
		Headers: []string{"workload", "power/peak"},
	}
	var rows [][]string
	for _, b := range bars {
		tbl.AddRow(b.Mix, report.F(b.AvgNorm, 3))
		rows = append(rows, []string{b.Mix, report.F(b.AvgNorm, 5)})
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return g.writeCSV("fig3.csv", []string{"workload", "power_over_peak"}, rows)
}

func (g *generator) fig6() error {
	rows, err := g.lab.Fig6()
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Fig. 6 — normalized performance per class and budget (1.0 = no loss)",
		Headers: []string{"class", "budget", "avg", "worst", "Jain"},
	}
	var csv [][]string
	for _, r := range rows {
		tbl.AddRow(r.Class, report.Pct(r.Budget), report.F(r.Avg, 3), report.F(r.Worst, 3), report.F(r.Jain, 3))
		csv = append(csv, []string{r.Class, report.F(r.Budget, 2), report.F(r.Avg, 5), report.F(r.Worst, 5), report.F(r.Jain, 5)})
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return g.writeCSV("fig6.csv", []string{"class", "budget", "avg", "worst", "jain"}, csv)
}

// policyTable runs one policy-comparison figure and writes its table
// and CSV.
func (g *generator) policyTable(title, csvName string, fig func() ([]experiments.PolicyPerf, error)) error {
	rows, err := fig()
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   title,
		Headers: []string{"workload", "policy", "avg", "worst", "Jain"},
	}
	var csvRows [][]string
	for _, r := range rows {
		tbl.AddRow(r.Workload, r.Policy, report.F(r.Avg, 3), report.F(r.Worst, 3), report.F(r.Jain, 3))
		csvRows = append(csvRows, []string{r.Workload, r.Policy, report.F(r.Avg, 5), report.F(r.Worst, 5), report.F(r.Jain, 5)})
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return g.writeCSV(csvName, []string{"workload", "policy", "avg", "worst", "jain"}, csvRows)
}

func (g *generator) fig1213() error {
	rows, err := g.lab.Fig12And13()
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Figs. 12 & 13 — FastCap across configurations, budget 60%",
		Headers: []string{"config", "class", "avg pwr/peak", "max pwr/peak", "avg perf", "worst perf"},
	}
	var csvRows [][]string
	for _, r := range rows {
		tbl.AddRow(r.Config, r.Class,
			report.F(r.AvgPowerNorm, 3), report.F(r.MaxPowerNorm, 3),
			report.F(r.AvgPerf, 3), report.F(r.WorstPerf, 3))
		csvRows = append(csvRows, []string{r.Config, r.Class,
			report.F(r.AvgPowerNorm, 5), report.F(r.MaxPowerNorm, 5),
			report.F(r.AvgPerf, 5), report.F(r.WorstPerf, 5)})
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return g.writeCSV("fig12_13.csv",
		[]string{"config", "class", "avg_pwr", "max_pwr", "avg_perf", "worst_perf"}, csvRows)
}

func (g *generator) overhead() error {
	rows, err := experiments.Overhead(2000)
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Algorithm overhead (paper §IV-B: 33.5/64.9/133.5 µs at 16/32/64 cores)",
		Headers: []string{"cores", "mean µs", "% of 5 ms epoch"},
	}
	for _, r := range rows {
		tbl.AddRow(fmt.Sprint(r.Cores), report.F(r.MeanUs, 1), report.F(r.PctOfEpoch, 2))
	}
	return tbl.Render(os.Stdout)
}

func (g *generator) validate() error {
	rows, err := g.lab.ValidateModels()
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Model validation (paper §III-A: power model error < 10%)",
		Headers: []string{"mix", "mean pwr err %", "max pwr err %", "mean Eq.1 resp err %"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Mix, report.F(r.MeanPowerErrPct, 1), report.F(r.MaxPowerErrPct, 1), report.F(r.MeanRespErrPct, 1))
	}
	return tbl.Render(os.Stdout)
}

func (g *generator) cacheContention() error {
	rows, err := experiments.CacheContention(nil)
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Shared-L2 contention model vs Table III calibration (applu story)",
		Headers: []string{"mix", "app", "L2 share", "model MPKI", "calibrated MPKI"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Mix, r.App, report.F(r.ShareFrac, 3), report.F(r.ModelMPKI, 2), report.F(r.CalibratedMPKI, 2))
	}
	return tbl.Render(os.Stdout)
}

func (g *generator) ablation() error {
	rows, err := g.lab.AblationGuard()
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Ablation — post-quantization budget guard, budget 60%",
		Headers: []string{"mix", "variant", "avg pwr/peak", "max pwr/peak", "over-budget epochs %", "avg perf", "worst perf"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Mix, r.Variant, report.F(r.AvgPowerNorm, 3), report.F(r.MaxPowerNorm, 3),
			report.F(r.OverBudgetEpochsPct, 0), report.F(r.AvgPerf, 3), report.F(r.WorstPerf, 3))
	}
	return tbl.Render(os.Stdout)
}

func (g *generator) hetero() error {
	rows, err := g.lab.Heterogeneity()
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Heterogeneous machines — FastCap vs all policies, budget 60%",
		Headers: []string{"machine", "workload", "policy", "avg pwr/peak", "max pwr/peak", "avg perf", "worst perf", "Jain"},
	}
	var csvRows [][]string
	for _, r := range rows {
		tbl.AddRow(r.Machine, r.Mix, r.Policy,
			report.F(r.AvgPowerNorm, 3), report.F(r.MaxPowerNorm, 3),
			report.F(r.AvgPerf, 3), report.F(r.WorstPerf, 3), report.F(r.Jain, 3))
		csvRows = append(csvRows, []string{r.Machine, r.Mix, r.Policy,
			report.F(r.AvgPowerNorm, 5), report.F(r.MaxPowerNorm, 5),
			report.F(r.AvgPerf, 5), report.F(r.WorstPerf, 5), report.F(r.Jain, 5)})
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return g.writeCSV("hetero.csv",
		[]string{"machine", "workload", "policy", "avg_pwr", "max_pwr", "avg_perf", "worst_perf", "jain"}, csvRows)
}

// fleetTable lays out one fleet scenario's output: row returns a
// member row's table cells and CSV values, under head and csv.
type fleetTable struct {
	title     string
	head, csv []string
	row       func(r experiments.FleetRow) (cells, vals []string)
}

var fleetTables = map[string]fleetTable{
	"cluster": {
		title: "Cluster coordination — global budget arbitration across machines",
		head:  []string{"arbiter", "budget", "member", "workload", "machine", "avg grant W", "avg power W", "avg slack W", "grant first→last W", "Ginstr", "norm perf"},
		csv:   []string{"arbiter", "budget", "member", "workload", "machine", "avg_grant_w", "avg_power_w", "avg_slack_w", "first_grant_w", "last_grant_w", "ginstr", "norm_perf"},
		row: func(r experiments.FleetRow) ([]string, []string) {
			shift := fmt.Sprintf("%s → %s", report.F(r.FirstGrantW, 1), report.F(r.LastGrantW, 1))
			return []string{r.Arbiter, report.Pct(r.BudgetFrac), r.Member, r.Mix, r.Machine,
					report.F(r.AvgGrantW, 1), report.F(r.AvgPowerW, 1), report.F(r.AvgSlackW, 1),
					shift, report.F(r.GInstr, 3), report.F(r.NormPerf, 3)},
				[]string{r.Arbiter, report.F(r.BudgetFrac, 2), r.Member, r.Mix, r.Machine,
					report.F(r.AvgGrantW, 5), report.F(r.AvgPowerW, 5), report.F(r.AvgSlackW, 5),
					report.F(r.FirstGrantW, 5), report.F(r.LastGrantW, 5), report.F(r.GInstr, 5), report.F(r.NormPerf, 5)}
		},
	},
	"slo": {
		title: "SLO arbitration — throughput contracts on a churning fleet",
		head:  []string{"arbiter", "budget", "member", "workload", "target BIPS", "avg BIPS", "satisfied", "violations", "avg grant W", "avg slack W"},
		csv:   []string{"arbiter", "budget", "member", "workload", "target_bips", "avg_bips", "satisfied_frac", "violations", "avg_grant_w", "avg_slack_w"},
		row: func(r experiments.FleetRow) ([]string, []string) {
			target := "-"
			if r.TargetBIPS > 0 {
				target = report.F(r.TargetBIPS, 3)
			}
			return []string{r.Arbiter, report.Pct(r.BudgetFrac), r.Member, r.Mix,
					target, report.F(r.AvgBIPS, 3), report.Pct(r.SatisfiedFrac),
					fmt.Sprint(r.Violations), report.F(r.AvgGrantW, 1), report.F(r.AvgSlackW, 1)},
				[]string{r.Arbiter, report.F(r.BudgetFrac, 2), r.Member, r.Mix,
					report.F(r.TargetBIPS, 5), report.F(r.AvgBIPS, 5), report.F(r.SatisfiedFrac, 5),
					fmt.Sprint(r.Violations), report.F(r.AvgGrantW, 5), report.F(r.AvgSlackW, 5)}
		},
	},
	"predictive": {
		title: "Predictive arbitration — forecast-driven hand-off on phase changes",
		head:  []string{"scenario", "arbiter", "budget", "member", "workload", "reclaim epochs", "overshoot W·e", "avg grant W", "avg power W", "ginstr", "violations"},
		csv:   []string{"scenario", "arbiter", "budget", "member", "workload", "reclaim_epochs", "overshoot_w_epochs", "avg_grant_w", "avg_power_w", "ginstr", "floor_violations", "clamp_violations"},
		row: func(r experiments.FleetRow) ([]string, []string) {
			return []string{r.Variant, r.Arbiter, report.Pct(r.BudgetFrac), r.Member, r.Mix,
					fmt.Sprint(r.TimeToReclaim), report.F(r.OvershootWEpochs, 1),
					report.F(r.AvgGrantW, 1), report.F(r.AvgPowerW, 1), report.F(r.GInstr, 2),
					fmt.Sprint(r.FloorViolations + r.ClampViolations)},
				[]string{r.Variant, r.Arbiter, report.F(r.BudgetFrac, 3), r.Member, r.Mix,
					fmt.Sprint(r.TimeToReclaim), report.F(r.OvershootWEpochs, 5),
					report.F(r.AvgGrantW, 5), report.F(r.AvgPowerW, 5), report.F(r.GInstr, 5),
					fmt.Sprint(r.FloorViolations), fmt.Sprint(r.ClampViolations)}
		},
	},
}

// fleet runs the named fleet scenario and writes its table and
// <name>.csv.
func (g *generator) fleet(name string) error {
	rows, err := g.lab.FleetSweep(name)
	if err != nil {
		return err
	}
	layout := fleetTables[name]
	tbl := &report.Table{Title: layout.title, Headers: layout.head}
	var csvRows [][]string
	for _, r := range rows {
		cells, vals := layout.row(r)
		tbl.AddRow(cells...)
		csvRows = append(csvRows, vals)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	return g.writeCSV(name+".csv", layout.csv, csvRows)
}

func (g *generator) epochStudy() error {
	rows, err := g.lab.EpochLengthStudy()
	if err != nil {
		return err
	}
	tbl := &report.Table{
		Title:   "Epoch length study (paper §IV-B: 5/10/20 ms are equivalent)",
		Headers: []string{"epoch ms", "mix", "power/peak", "avg perf", "worst perf"},
	}
	for _, r := range rows {
		tbl.AddRow(report.F(r.EpochMs, 0), r.Mix, report.F(r.AvgPowerNorm, 3),
			report.F(r.AvgPerf, 3), report.F(r.WorstPerf, 3))
	}
	return tbl.Render(os.Stdout)
}
