package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// The exposition format is a wire contract: scrapers parse it byte by
// byte, so we golden-test it byte by byte. Families must sort by name,
// series by label block, histograms must render cumulative buckets with
// the +Inf bucket equal to _count.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("demo_epochs_total", "Epochs stepped.")
	c.Add(41)
	c.Inc()

	g := r.Gauge("demo_budget_w", "Active watt budget.")
	g.Set(37.5)

	rej := r.CounterVec("demo_rejections_total", "Rejected requests.", "reason")
	rej.With("limit").Add(3)
	rej.With("draining").Inc()

	gv := r.GaugeVec("demo_grant_w", "Granted watts.", "cluster")
	gv.With("c2").Set(12.25)
	gv.With("c1").Set(25)
	gv.WithFunc(func() float64 { return 7 }, "c3")

	h := r.Histogram("demo_step_seconds", "Step latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 2.5} {
		h.Observe(v)
	}

	r.GaugeFunc("demo_queue_depth", "Runnable queue length.", func() float64 { return 4 })

	want := strings.Join([]string{
		"# HELP demo_budget_w Active watt budget.",
		"# TYPE demo_budget_w gauge",
		"demo_budget_w 37.5",
		"# HELP demo_epochs_total Epochs stepped.",
		"# TYPE demo_epochs_total counter",
		"demo_epochs_total 42",
		"# HELP demo_grant_w Granted watts.",
		"# TYPE demo_grant_w gauge",
		`demo_grant_w{cluster="c1"} 25`,
		`demo_grant_w{cluster="c2"} 12.25`,
		`demo_grant_w{cluster="c3"} 7`,
		"# HELP demo_queue_depth Runnable queue length.",
		"# TYPE demo_queue_depth gauge",
		"demo_queue_depth 4",
		"# HELP demo_rejections_total Rejected requests.",
		"# TYPE demo_rejections_total counter",
		`demo_rejections_total{reason="draining"} 1`,
		`demo_rejections_total{reason="limit"} 3`,
		"# HELP demo_step_seconds Step latency.",
		"# TYPE demo_step_seconds histogram",
		`demo_step_seconds_bucket{le="0.01"} 2`,
		`demo_step_seconds_bucket{le="0.1"} 3`,
		`demo_step_seconds_bucket{le="1"} 3`,
		`demo_step_seconds_bucket{le="+Inf"} 4`,
		"demo_step_seconds_sum 2.56",
		"demo_step_seconds_count 4",
		"",
	}, "\n")

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}

	// Repeat scrapes must be byte-identical (deterministic ordering).
	var b2 strings.Builder
	if err := r.WriteText(&b2); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if b2.String() != b.String() {
		t.Errorf("second scrape differs from first")
	}
}

func TestLabeledHistogramAndDelete(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("demo_arb_seconds", "Arbitration latency.", []float64{0.5}, "cluster")
	hv.With("c1").Observe(0.25)
	gv := r.GaugeVec("demo_members", "Members.", "cluster")
	gv.With("c1").Set(3)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, line := range []string{
		`demo_arb_seconds_bucket{cluster="c1",le="0.5"} 1`,
		`demo_arb_seconds_bucket{cluster="c1",le="+Inf"} 1`,
		`demo_arb_seconds_sum{cluster="c1"} 0.25`,
		`demo_arb_seconds_count{cluster="c1"} 1`,
		`demo_members{cluster="c1"} 3`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, b.String())
		}
	}

	// After Delete the series disappears, and with no series left the
	// family header is suppressed too.
	hv.Delete("c1")
	gv.Delete("c1")
	gv.Delete("c1") // idempotent
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if strings.Contains(b.String(), "c1") || strings.Contains(b.String(), "# TYPE") {
		t.Errorf("deleted series still rendered:\n%s", b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("demo_total", "d.", "name")
	v.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want := `demo_total{name="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Errorf("escaped series = %q not found in:\n%s", want, b.String())
	}
}

// Nil registries and nil handles must be complete no-ops so zero-value
// metric configs disable instrumentation with no branches at call sites.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "d.")
	g := r.Gauge("x", "d.")
	h := r.Histogram("x_seconds", "d.", nil)
	cv := r.CounterVec("xv_total", "d.", "l")
	gv := r.GaugeVec("xv", "d.", "l")
	hv := r.HistogramVec("xv_seconds", "d.", nil, "l")
	r.GaugeFunc("xf", "d.", func() float64 { return 1 })

	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(3)
	cv.With("a").Inc()
	gv.With("a").Set(1)
	gv.WithFunc(func() float64 { return 1 }, "a")
	gv.Delete("a")
	hv.With("a").Observe(1)
	hv.Delete("a")

	if c.Value() != 0 || g.Value() != 0 || h.Summary().Count() != 0 {
		t.Errorf("nil handles accumulated state")
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteText: %v", err)
	}
}

func TestDuplicateAndMismatchedLabelsPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "d.")
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("duplicate registration did not panic")
			}
		}()
		r.Counter("dup_total", "d.")
	}()
	v := r.CounterVec("lab_total", "d.", "a", "b")
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("label arity mismatch did not panic")
			}
		}()
		v.With("only-one")
	}()
}

// Concurrent scrapes against concurrent updates must be race-clean and
// always produce parseable output (this test's teeth come from -race).
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "d.")
	h := r.Histogram("x_seconds", "d.", nil)
	v := r.GaugeVec("xv", "d.", "l")
	a := v.With("a")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				c.Inc()
				h.Observe(0.01)
				a.Set(0.5)
			}
		}
	}()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if !strings.Contains(b.String(), "# TYPE x_total counter") {
			t.Fatalf("scrape lost a family:\n%s", b.String())
		}
	}
	close(done)
	wg.Wait()
}

func TestFormatFloat(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"}, {0.25, "0.25"}, {3, "3"},
	} {
		if got := formatFloat(c.v); got != c.want {
			t.Errorf("formatFloat(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}
