// Package metrics is a zero-dependency, race-safe metrics registry that
// renders the Prometheus text exposition format (version 0.0.4). It
// exists so fastcapd can export an observability plane — sessions by
// state, epochs/sec, arbitration latency, eviction churn — without
// pulling client_golang into a module that deliberately has no
// dependencies: the daemon's serving surface is the one place a dep
// would creep in, and everything it needs (atomic counters, gauges,
// labeled families, one histogram shape) fits in a few hundred lines
// whose behavior we can golden-test byte for byte.
//
// Design rules, chosen for the instrumented hot paths:
//
//   - Handles are pre-resolved. Vec.With does a map lookup and may
//     allocate, so instrumented code calls it at construction time and
//     holds the returned *Counter/*Gauge/*Histogram. Steady-state
//     updates are a single atomic op (counter/gauge) or a short
//     mutex'd bucket increment (histogram) — zero allocations, so the
//     arbitration path stays allocation-free with metrics enabled.
//
//   - Nil handles are silent no-ops. Every method checks its receiver,
//     so a zero-value config struct disables instrumentation without a
//     single branch at the call sites. Tests and library users pay
//     nothing for telemetry they did not ask for.
//
//   - Exposition is deterministic: families sort by name, series by
//     label value. Scrapes are diffable and the format is golden-
//     testable, the same discipline the simulator applies to results.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing uint64. A nil Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as atomic bits so
// Set is wait-free. A nil Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency histogram over a streaming
// summary: cumulative bucket counts for quantile estimation at the
// scrape side, plus exact sum/count (and min/max/stddev via the
// summary) with O(1) memory regardless of how long the daemon runs.
// Observe takes a short mutex — the histogram guards multi-word state —
// and performs no allocation. A nil Histogram no-ops.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []uint64  // len(bounds)+1; non-cumulative, summed at scrape
	sum    stats.Streaming
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.counts[stats.BucketIndex(h.bounds, v)]++
	h.sum.Observe(v)
	h.mu.Unlock()
}

// Summary returns a copy of the underlying streaming summary.
func (h *Histogram) Summary() stats.Streaming {
	if h == nil {
		return stats.Streaming{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot copies bucket counts and summary under the lock.
func (h *Histogram) snapshot(counts []uint64) ([]uint64, stats.Streaming) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append(counts[:0], h.counts...), h.sum
}

// DefLatencyBuckets spans 10µs to ~2.6s in powers of four — wide enough
// for sub-millisecond arbitration and multi-second session lifecycles
// in one shape.
var DefLatencyBuckets = stats.ExpBuckets(10e-6, 4, 10)

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled member of a family; exactly one of the value
// fields is set, matching the family's kind (gf for gauge functions).
type series struct {
	labels string // rendered {k="v",...}, "" for the unlabeled series
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

type family struct {
	name, help string
	kind       kind
	labels     []string
	bounds     []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion-keyed, sorted at scrape
}

// Registry holds metric families and renders them as Prometheus text.
// A nil Registry hands out nil (no-op) handles from every constructor,
// so "metrics off" is spelled by not creating one. Registration of a
// duplicate family name, or of label values whose count mismatches the
// family's label names, panics: both are wiring bugs best caught at
// startup, not scrape time.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate family %q", name))
	}
	f := &family{
		name: name, help: help, kind: k, labels: labels, bounds: bounds,
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// renderLabels builds the {k="v",...} block, escaping values per the
// exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func renderLabels(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("metrics: %d label values for %d label names", len(values), len(names)))
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// with returns the series for the given label values, creating it on
// first use. Callers resolve handles once at construction; with is not
// meant for hot paths.
func (f *family) with(values []string) *series {
	if f == nil {
		return nil
	}
	key := renderLabels(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: key}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = &Histogram{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

func (f *family) delete(values []string) {
	if f == nil {
		return
	}
	key := renderLabels(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[key]; !ok {
		return
	}
	delete(f.series, key)
	for i, k := range f.order {
		if k == key {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
}

// Counter registers an unlabeled counter family and returns its handle.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, nil, nil).with(nil).c
}

// Gauge registers an unlabeled gauge family and returns its handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, nil, nil).with(nil).g
}

// GaugeFunc registers an unlabeled gauge whose value is computed by f
// at scrape time — for state that already lives somewhere authoritative
// (queue lengths, map sizes) where mirroring into a Gauge would invite
// drift. f runs on the scrape goroutine and must be safe to call
// concurrently with the instrumented code.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, nil, nil).with(nil).gf = f
}

// Histogram registers an unlabeled histogram with the given ascending
// bucket bounds (nil means DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return r.register(name, help, kindHistogram, nil, bounds).with(nil).h
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. Resolve once at construction, not per update.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.with(values).c
}

// Delete drops the series for the given label values (its running total
// with it — bounded memory wins over keeping departed tenants' history).
func (v *CounterVec) Delete(values ...string) {
	if v == nil {
		return
	}
	v.f.delete(values)
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.with(values).g
}

// WithFunc binds a scrape-time function as the series for the given
// label values (see GaugeFunc).
func (v *GaugeVec) WithFunc(f func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.with(values).gf = f
}

// Delete drops the series for the given label values, so bounded-
// lifetime label sets (per-cluster gauges) do not accumulate forever in
// a long-lived daemon.
func (v *GaugeVec) Delete(values ...string) {
	if v == nil {
		return
	}
	v.f.delete(values)
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family (nil bounds means
// DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.with(values).h
}

// Delete drops the series for the given label values.
func (v *HistogramVec) Delete(values ...string) {
	if v == nil {
		return
	}
	v.f.delete(values)
}

// formatFloat renders a float the way the exposition format expects:
// shortest representation, +Inf/-Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// seriesName splices extra labels (the histogram le bound) into an
// already-rendered label block.
func seriesName(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + labels
	default:
		return name + labels[:len(labels)-1] + "," + extra + "}"
	}
}

// WriteText renders every family in exposition format, deterministically
// ordered (families by name, series by label block).
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	var counts []uint64
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		ss := make([]*series, 0, len(keys))
		sort.Strings(keys)
		for _, k := range keys {
			ss = append(ss, f.series[k])
		}
		f.mu.Unlock()
		if len(ss) == 0 {
			continue
		}

		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			switch {
			case s.c != nil:
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name, s.labels, ""), s.c.Value())
			case s.gf != nil:
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name, s.labels, ""), formatFloat(s.gf()))
			case s.g != nil:
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name, s.labels, ""), formatFloat(s.g.Value()))
			case s.h != nil:
				var sum stats.Streaming
				counts, sum = s.h.snapshot(counts)
				cum := uint64(0)
				for i, bound := range f.bounds {
					cum += counts[i]
					fmt.Fprintf(&b, "%s %d\n",
						seriesName(f.name+"_bucket", s.labels, `le="`+formatFloat(bound)+`"`), cum)
				}
				cum += counts[len(f.bounds)]
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name+"_bucket", s.labels, `le="+Inf"`), cum)
				fmt.Fprintf(&b, "%s %s\n", seriesName(f.name+"_sum", s.labels, ""), formatFloat(sum.Sum()))
				fmt.Fprintf(&b, "%s %d\n", seriesName(f.name+"_count", s.labels, ""), sum.Count())
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Errors past the header are broken-pipe noise; the scraper
		// already left.
		_ = r.WriteText(w)
	})
}
