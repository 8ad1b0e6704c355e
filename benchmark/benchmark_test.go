package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{199, 0.95, false}, {200, 0.95, true}, {240, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := trusted(c.n, c.p); got != c.want {
			t.Errorf("trusted(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestBandPercentile(t *testing.T) {
	// 1..100: the band around p50 is ranks 26..75, around p95 ranks
	// 93..98 — the largest two samples stay out.
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i)
	}
	if got := bandPercentile(vs, 0.5); got != 50.5 {
		t.Errorf("p50 band mean = %g, want 50.5", got)
	}
	if got := bandPercentile(vs, 0.95); got != 95.5 {
		t.Errorf("p95 band mean = %g, want 95.5", got)
	}
	// Two clusters with the median rank on the edge between them: one
	// sample changing cluster moves the band mean by a fiftieth of the
	// gap, where the plain median would jump by half of it.
	edge := func(low int) []float64 {
		out := make([]float64, 100)
		for i := range out {
			out[i] = 20
			if i < low {
				out[i] = 10
			}
		}
		return out
	}
	a, b := bandPercentile(edge(50), 0.5), bandPercentile(edge(51), 0.5)
	if a != 15 || b != 14.8 {
		t.Errorf("band means on the edge: %g then %g, want 15 then 14.8", a, b)
	}
	if got := bandPercentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("one sample: %g", got)
	}
	if got := bandPercentile(nil, 0.5); got != 0 {
		t.Errorf("no sample: %g", got)
	}
}

// A two-mode sample: the pooled median sits on the edge between the
// modes, the per-class percentile keeps both modes in the number.
func TestLatenciesPercentilePerClass(t *testing.T) {
	var l latencies
	for i := 0; i < 100; i++ {
		l.add(0, time.Duration(5+(i%4+1)/2)*time.Millisecond)  // 5, 6, 6, 7 ms
		l.add(1, time.Duration(50+(i%4+1)/2)*time.Millisecond) // 50, 51, 51, 52 ms
	}
	v, n := l.pct(0.5)
	if n != 200 || v != (6+51)/2.0 {
		t.Errorf("pct(0.5) = %g over %d samples, want 28.5 over 200", v, n)
	}
	var other latencies
	other.add(2, time.Millisecond)
	l.merge(&other)
	if _, n := l.pct(0.5); n != 201 {
		t.Errorf("merged count %d, want 201", n)
	}
	if v, n := (&latencies{}).pct(0.5); v != 0 || n != 0 {
		t.Errorf("empty pct = %g, %d", v, n)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := quartileSpread([]float64{3, 1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 3 values = %g, want 1", got)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestBoundComparison(t *testing.T) {
	for _, c := range []struct {
		better      string
		bound       float64
		base, cur   float64
		wantWorseBy float64
		wantOK      bool
	}{
		{"lower", 0.05, 100, 104, 0.04, true},
		{"lower", 0.05, 100, 106, 0.06, false},
		{"lower", 0.05, 100, 50, -0.5, true}, // better is always within
		{"higher", 0.05, 100, 96, 0.04, true},
		{"higher", 0.05, 100, 94, 0.06, false},
		{"higher", 0.05, 100, 200, -1, true},
	} {
		if got := worseBy(c.better, c.base, c.cur); math.Abs(got-c.wantWorseBy) > 1e-12 {
			t.Errorf("worseBy(%s, %g, %g) = %g, want %g", c.better, c.base, c.cur, got, c.wantWorseBy)
		}
		if got := withinBound(c.better, c.bound, c.base, c.cur); got != c.wantOK {
			t.Errorf("withinBound(%s, %g, %g, %g) = %v, want %v", c.better, c.bound, c.base, c.cur, got, c.wantOK)
		}
	}
}

func TestAgreement(t *testing.T) {
	mk := func(eps, spread float64) []workloadReport {
		return []workloadReport{{Workload: "w", EndToEnd: []summary{
			{metricSpec: metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}, Median: 1, Spread: 0.9},
			{metricSpec: metricSpec{Name: "epochs_per_s", Better: "higher", Bound: 0.05}, Median: eps, Spread: spread},
		}}}
	}
	if bad := agreement(mk(100, 0.01), mk(103, 0.01)); len(bad) != 0 {
		t.Errorf("3%% apart under a 5%% bound: %v", bad)
	}
	// Either direction counts: the two sets ran the same code.
	if bad := agreement(mk(100, 0.01), mk(110, 0.01)); len(bad) != 1 {
		t.Errorf("10%% apart under a 5%% bound: %v", bad)
	}
	// A spread over the bound is reported for the set that has it;
	// setup_s's spread is exempt.
	if bad := agreement(mk(100, 0.01), mk(100, 0.08)); len(bad) != 1 {
		t.Errorf("spread over the bound: %v", bad)
	}
}

// ns builds a span from nanosecond bounds.
func ns(layer, op uint8, parent int32, start, end int64) span {
	return span{Layer: layer, Op: op, Parent: parent, Start: start, End: end}
}

func TestLedgerSelfTime(t *testing.T) {
	// A 100 ns step with a 30 ns platform call and a 20 ns decide.
	lg := buildLedger([]span{
		ns(layerRunner, opStep, -1, 0, 100),
		ns(layerSim, opRunProfile, 0, 10, 40),
		ns(layerPolicy, opDecide, 0, 50, 70),
	})
	if lg.Self[layerRunner] != 50 || lg.Self[layerSim] != 30 || lg.Self[layerPolicy] != 20 || lg.Wall != 100 || lg.Roots != 1 {
		t.Errorf("sequential children: %+v", lg)
	}
	if lg.SelfOp[layerRunner][opStep] != 50 || lg.Dur[layerSim][opRunProfile] != 30 || lg.Count[layerPolicy][opDecide] != 1 {
		t.Errorf("per-op accounting: %+v", lg)
	}
}

func TestLedgerClipsChildrenToParent(t *testing.T) {
	// The child started before its parent and ended after it: only the
	// part inside the parent is the parent's to hand down.
	lg := buildLedger([]span{
		ns(layerCluster, opEpoch, -1, 100, 200),
		ns(layerRunner, opStep, 0, 50, 150),
		ns(layerRunner, opStep, 0, 180, 260),
	})
	if lg.Self[layerCluster] != 30 || lg.Self[layerRunner] != 70 {
		t.Errorf("clipped children: cluster %g runner %g, want 30 and 70", lg.Self[layerCluster], lg.Self[layerRunner])
	}
	if sum := lg.Self[layerCluster] + lg.Self[layerRunner]; sum != lg.Wall {
		t.Errorf("ledger sums to %g, wall is %g", sum, lg.Wall)
	}
}

func TestLedgerOverlappingChildren(t *testing.T) {
	// Two members stepped in parallel on a worker pool: [10,60] and
	// [30,90] cover 80 ns of the 100 ns epoch, so the coordinator's self
	// time is 20 ns, and the members share the 80 ns they covered in
	// proportion to their durations (50:60) instead of claiming 110.
	lg := buildLedger([]span{
		ns(layerCluster, opEpoch, -1, 0, 100),
		ns(layerRunner, opStep, 0, 10, 60),
		ns(layerPolicy, opDecide, 1, 20, 40), // inside the first member
		ns(layerRunner, opStep, 0, 30, 90),
	})
	if lg.Self[layerCluster] != 20 {
		t.Errorf("coordinator self = %g, want 20", lg.Self[layerCluster])
	}
	scale := 80.0 / 110.0
	if want := scale * (30 + 60); math.Abs(lg.Self[layerRunner]-want) > 1e-9 {
		t.Errorf("runner self = %g, want %g", lg.Self[layerRunner], want)
	}
	if want := scale * 20; math.Abs(lg.Self[layerPolicy]-want) > 1e-9 {
		t.Errorf("policy self = %g, want %g", lg.Self[layerPolicy], want)
	}
	sum := 0.0
	for _, v := range lg.Self {
		sum += v
	}
	if math.Abs(sum-lg.Wall) > 1e-9 {
		t.Errorf("ledger sums to %g, wall is %g", sum, lg.Wall)
	}
	// Durations stay what the spans measured, whatever overlapped them.
	if lg.Dur[layerRunner][opStep] != 110 || lg.Count[layerRunner][opStep] != 2 {
		t.Errorf("durations: %g over %d", lg.Dur[layerRunner][opStep], lg.Count[layerRunner][opStep])
	}
}

func TestTracerMergesSessionBuffers(t *testing.T) {
	tr := newTracer()
	root := tr.begin(layerCluster, opEpoch, -1, 0)
	a, b := tr.buffer(), tr.buffer()
	sa := a.begin(layerRunner, opStep, mainRef(root), 1)
	a.end(a.begin(layerPolicy, opDecide, sa, 1))
	a.end(sa)
	sb := b.begin(layerRunner, opStep, mainRef(root), 2)
	b.end(b.begin(layerReplay, opApply, sb, 2))
	b.end(sb)
	tr.end(root)
	all := tr.all()
	if len(all) != 5 {
		t.Fatalf("%d spans, want 5", len(all))
	}
	wantParents := []int32{-1, 0, 1, 0, 3}
	for i, s := range all {
		if s.Parent != wantParents[i] {
			t.Errorf("span %d parent %d, want %d", i, s.Parent, wantParents[i])
		}
	}
	// Chunked growth keeps indexes stable, and all() emptied the buffers.
	for i := 0; i < 2*chunkSpans+2; i++ {
		a.end(a.begin(layerPolicy, opDecide, -1, 0))
	}
	if a.n != 2+2*chunkSpans || len(a.chunks) != 3 {
		t.Errorf("buffer holds %d spans in %d chunks", a.n, len(a.chunks))
	}
}

func TestFidelity(t *testing.T) {
	var f fidelity
	f.capEpoch(0, 200, 100) // cold start: ignored
	f.capEpoch(2, 102, 100)
	f.capEpoch(3, 96, 100)
	if got := f.capPeakPct(); math.Abs(got-102) > 1e-9 {
		t.Errorf("cap peak %g, want 102", got)
	}
	if got := f.capErrorPct(); math.Abs(got-3) > 1e-9 {
		t.Errorf("cap error %g, want 3", got)
	}
	if err := f.perf([]float64{80, 90, 70}, []float64{100, 100, 100}); err != nil {
		t.Fatal(err)
	}
	if got := f.normPerfPct(); math.Abs(got-80) > 1e-9 {
		t.Errorf("normalised performance %g, want 80", got)
	}
	if got := f.fairnessSpreadPct(); math.Abs(got-25) > 1e-9 {
		t.Errorf("fairness spread %g, want 25", got)
	}
	if err := f.perf([]float64{1}, []float64{0}); err == nil {
		t.Error("a baseline that made no progress was accepted")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json at the repository root is the contract the benchmark
// driver reads; it must say what this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, program has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's")
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(raw) > 64<<10 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d bytes", len(endToEnd), len(perLayer), len(raw))
	}
}

// The last line a pass prints has exactly the contract's keys.
func TestResultJSONSchema(t *testing.T) {
	res := result{Correct: true, Attempted: 3, Failed: 0, Metrics: map[string]measurement{"setup_s": {0.8127, "s"}}}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(b, &generic); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range generic {
		keys = append(keys, k)
	}
	if len(keys) != 4 || generic["correct"] != true || generic["attempted"] != 3.0 || generic["failed"] != 0.0 {
		t.Errorf("result keys %v: %s", keys, b)
	}
	m := generic["metrics"].(map[string]any)["setup_s"].(map[string]any)
	if len(m) != 2 || m["value"] != 0.8127 || m["unit"] != "s" {
		t.Errorf("metric object %v", m)
	}

	// result.json rows carry the metric's description and its statistics.
	s := summarize(metricSpec{Name: "epoch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.05}, []float64{3, 1, 2})
	b, _ = json.Marshal(s)
	var row map[string]any
	if err := json.Unmarshal(b, &row); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"name", "unit", "better", "bound", "median", "min", "max", "n", "spread"} {
		if _, ok := row[k]; !ok {
			t.Errorf("result.json row lacks %q: %s", k, b)
		}
	}
	if row["median"] != 2.0 || row["min"] != 1.0 || row["max"] != 3.0 || row["n"] != 3.0 {
		t.Errorf("row statistics: %s", b)
	}
}

// Every metric the specification names is produced by some code path:
// the per-layer names are spelled twice (where they are declared and
// where they are measured), and a typo would only show as a traced pass
// failing after minutes.
func TestMicroSuiteNamesAreDeclared(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	for name := range microSuite(time.Microsecond, 1) {
		if !declared[name] {
			t.Errorf("micro row %s is not a declared per-layer metric", name)
		}
	}
}
