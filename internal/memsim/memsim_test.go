package memsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/qmodel"
)

// after runs fn once, delay nanoseconds from now, on a timer of its own.
func after(eng *engine.Engine, delay float64, fn func()) {
	eng.NewTimer(fn).Reset(delay)
}

func newTestController(t *testing.T, eng *engine.Engine, banks int) *Controller {
	t.Helper()
	c, err := NewController(eng, banks, DDR3(), DefaultPower(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerErrors(t *testing.T) {
	eng := engine.New()
	if _, err := NewController(eng, 0, DDR3(), DefaultPower(), 0.8); err == nil {
		t.Error("zero banks accepted")
	}
	if _, err := NewController(eng, 4, DDR3(), DefaultPower(), 0); err == nil {
		t.Error("zero frequency accepted")
	}
}

func TestSingleReadLatency(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 8)
	done := -1.0
	c.Submit(&Request{Core: 0, Bank: 3, Row: 7, Done: func() { done = eng.Now() }})
	eng.RunUntil(1000)
	// Empty row buffer: tRCD + tCL = 30 ns, plus transfer 4/0.8 = 5 ns.
	want := 30.0 + 5.0
	if math.Abs(done-want) > 1e-9 {
		t.Errorf("read completed at %g ns, want %g", done, want)
	}
	ctr := c.Counters()
	if ctr.Reads != 1 || ctr.Writebacks != 0 || ctr.RowHits != 0 {
		t.Errorf("counters: %+v", ctr)
	}
}

func TestRowHitAndConflictTiming(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 8)
	var times []float64
	mk := func(row int32) *Request {
		return &Request{Bank: 0, Row: row, Done: func() { times = append(times, eng.Now()) }}
	}
	// Sequential, same bank: first activates (30), second hits (15),
	// third conflicts (45). Each also takes 5 ns on the bus, and the bank
	// is blocked until the transfer finishes.
	c.Submit(mk(1))
	eng.RunUntil(35) // first completes
	c.Submit(mk(1))
	eng.RunUntil(55) // hit: 35 + 15 + 5
	c.Submit(mk(2))
	eng.RunUntil(200)
	if len(times) != 3 {
		t.Fatalf("completed %d, want 3", len(times))
	}
	if math.Abs(times[0]-35) > 1e-9 {
		t.Errorf("activate+read at %g, want 35", times[0])
	}
	if math.Abs(times[1]-55) > 1e-9 {
		t.Errorf("row hit at %g, want 55", times[1])
	}
	if math.Abs(times[2]-105) > 1e-9 { // 55 + (15+15+15) + 5
		t.Errorf("row conflict at %g, want 105", times[2])
	}
	if got := c.Counters().RowHits; got != 1 {
		t.Errorf("row hits = %d, want 1", got)
	}
}

func TestTransferBlocking(t *testing.T) {
	// Two banks finish service while the bus is saturated: the second
	// bank must remain blocked (cannot serve its next request) until its
	// first request clears the bus. This is the paper's Fig. 1 scenario.
	eng := engine.New()
	// Slow bus: 4 cycles at 0.1 GHz = 40 ns per transfer.
	c, err := NewController(eng, 2, DDR3(), DefaultPower(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var done []int
	mk := func(id, bank int, row int32) *Request {
		return &Request{Bank: bank, Row: row, Done: func() { done = append(done, id) }}
	}
	// Bank 0 and bank 1 both get two same-row requests at t=0.
	c.Submit(mk(0, 0, 1))
	c.Submit(mk(1, 1, 1))
	c.Submit(mk(2, 0, 1))
	c.Submit(mk(3, 1, 1))
	// Service (30 ns) overlaps across banks; transfers serialize at 40 ns.
	// req0 done at 30+40 = 70; req1 finishes service at 30, waits for bus
	// until 70, done at 110. Bank 0 is blocked until 70, then serves req2
	// (row hit, 15 ns) at 85, but the bus is busy with req1 until 110 →
	// req2 done at 150. Bank 1 blocked until 110, serves req3 by 125,
	// transfer 150→190.
	eng.RunUntil(1000)
	if len(done) != 4 {
		t.Fatalf("completed %d, want 4", len(done))
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion order %v, want %v", done, want)
		}
	}
	if c.QueuedRequests() != 0 {
		t.Errorf("requests left in controller: %d", c.QueuedRequests())
	}
	// Bus was busy 4 transfers × 40 ns.
	if got := c.Counters().BusBusyNs; math.Abs(got-160) > 1e-9 {
		t.Errorf("bus busy %g ns, want 160", got)
	}
}

func TestTransferBlockingDelaysBankService(t *testing.T) {
	// Direct check of the blocking property: with a very slow bus, a
	// bank's second request must not start service when the first's
	// service ends, but only after the first's transfer completes.
	eng := engine.New()
	c, err := NewController(eng, 1, DDR3(), DefaultPower(), 0.01) // 400 ns transfers
	if err != nil {
		t.Fatal(err)
	}
	var first, second float64
	c.Submit(&Request{Bank: 0, Row: 1, Done: func() { first = eng.Now() }})
	c.Submit(&Request{Bank: 0, Row: 1, Done: func() { second = eng.Now() }})
	eng.RunUntil(5000)
	// first: service 30 + transfer 400 = 430.
	if math.Abs(first-430) > 1e-9 {
		t.Errorf("first done at %g, want 430", first)
	}
	// second: starts service only at 430 (blocked), row hit 15, transfer
	// 400 → 845. Without blocking it would finish at 430+400=830.
	if math.Abs(second-845) > 1e-9 {
		t.Errorf("second done at %g, want 845 (blocking violated)", second)
	}
}

func TestWritebacksCountedSeparately(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 4)
	c.Submit(&Request{Bank: 0, Row: 1, Writeback: true})
	c.Submit(&Request{Bank: 1, Row: 1})
	eng.RunUntil(100)
	ctr := c.Counters()
	if ctr.Writebacks != 1 || ctr.Reads != 1 {
		t.Errorf("reads=%d writebacks=%d", ctr.Reads, ctr.Writebacks)
	}
}

func TestBankIndexWraps(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 4)
	ok := false
	c.Submit(&Request{Bank: 9, Row: 1, Done: func() { ok = true }}) // 9 % 4 = 1
	c.Submit(&Request{Bank: -1, Row: 1})                            // wraps to 3
	eng.RunUntil(100)
	if !ok {
		t.Error("wrapped request never completed")
	}
	if c.QueuedRequests() != 0 {
		t.Error("requests stuck after wrap")
	}
}

func TestSetBusFreqChangesTransferTime(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 4)
	if got := c.TransferTime(); math.Abs(got-5) > 1e-9 {
		t.Errorf("transfer time at 800 MHz = %g, want 5", got)
	}
	c.SetBusFreq(0.2)
	if got := c.TransferTime(); math.Abs(got-20) > 1e-9 {
		t.Errorf("transfer time at 200 MHz = %g, want 20", got)
	}
	if got := c.MinTransferTime(); math.Abs(got-5) > 1e-9 {
		t.Errorf("min transfer time = %g, want 5", got)
	}
	c.SetBusFreq(0) // ignored
	if c.BusFreq() != 0.2 {
		t.Error("zero frequency not ignored")
	}
}

func TestCountersSubAndMemStats(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 2)
	before := c.Counters()
	for i := 0; i < 10; i++ {
		c.Submit(&Request{Bank: i % 2, Row: int32(i)})
	}
	eng.RunUntil(10000)
	delta := c.Counters().Sub(before)
	if delta.Arrivals != 10 || delta.Departures != 10 {
		t.Fatalf("delta = %+v", delta)
	}
	s := delta.MemStats(DDR3())
	if !s.Valid() {
		t.Fatalf("invalid stats %+v", s)
	}
	// Bursty arrival at t=0 into 2 banks: queues of 5 each → mean
	// queue-at-arrival = (1+2+3+4+5)/5 = 3.
	if math.Abs(s.Q-3) > 1e-9 {
		t.Errorf("Q = %g, want 3", s.Q)
	}
	if s.Sm < 15 || s.Sm > 45 {
		t.Errorf("Sm = %g outside DDR3 service range", s.Sm)
	}
}

func TestMemStatsEmptyWindow(t *testing.T) {
	var delta Counters
	s := delta.MemStats(DDR3())
	if s.Q != 1 || s.U != 1 || s.Sm != 15 {
		t.Errorf("idle defaults = %+v", s)
	}
}

func TestPowerModel(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 4)
	// Idle window at max frequency: static + clock.
	idle := c.Power(Counters{}, 1000)
	if math.Abs(idle-(10+6)) > 1e-9 {
		t.Errorf("idle power = %g, want 16", idle)
	}
	// Saturated bus at max frequency: full peak.
	sat := c.Power(Counters{BusBusyNs: 1000}, 1000)
	if math.Abs(sat-36) > 1e-9 {
		t.Errorf("saturated power = %g, want peak 36", sat)
	}
	if math.Abs(c.PeakPower()-36) > 1e-9 {
		t.Errorf("PeakPower = %g, want 36", c.PeakPower())
	}
	// Halving frequency halves the dynamic part (β = 1).
	c.SetBusFreq(0.4)
	half := c.Power(Counters{BusBusyNs: 1000}, 1000)
	if math.Abs(half-(10+0.5*26)) > 1e-9 {
		t.Errorf("half-frequency power = %g, want 23", half)
	}
	// Degenerate window.
	if got := c.Power(Counters{}, 0); got != 10 {
		t.Errorf("zero window power = %g, want static", got)
	}
}

func TestRequestConservationUnderLoad(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 8)
	rng := rand.New(rand.NewSource(3))
	completed := 0
	const total = 5000
	for i := 0; i < total; i++ {
		r := &Request{
			Bank:      rng.Intn(8),
			Row:       int32(rng.Intn(64)),
			Writeback: rng.Intn(4) == 0,
		}
		r.Done = func() { completed++ }
		after(eng, rng.Float64()*50000, func() { c.Submit(r) })
	}
	eng.RunUntil(10e6)
	if completed != total {
		t.Fatalf("completed %d of %d", completed, total)
	}
	if c.QueuedRequests() != 0 {
		t.Errorf("%d requests stranded", c.QueuedRequests())
	}
	ctr := c.Counters()
	if ctr.Arrivals != total || ctr.Departures != total {
		t.Errorf("arrivals=%d departures=%d", ctr.Arrivals, ctr.Departures)
	}
	if ctr.SvcCount != total {
		t.Errorf("service count=%d", ctr.SvcCount)
	}
}

// The measured response time under light load should approach the Eq. 1
// prediction (and both should approach sm + sb with no contention).
func TestResponseMatchesEq1LightLoad(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 8)
	rng := rand.New(rand.NewSource(11))
	var totalResp float64
	n := 0
	// One request at a time (closed loop, single customer): zero queueing.
	var issue func()
	issue = func() {
		start := eng.Now()
		r := &Request{Bank: rng.Intn(8), Row: int32(rng.Intn(4096))}
		r.Done = func() {
			totalResp += eng.Now() - start
			n++
			if n < 2000 {
				after(eng, 100, issue) // think, then next request
			}
		}
		c.Submit(r)
	}
	issue()
	eng.RunUntil(1e9)
	if n != 2000 {
		t.Fatalf("completed %d", n)
	}
	measured := totalResp / float64(n)
	stats := c.Counters().MemStats(DDR3())
	predicted := stats.Response(c.TransferTime())
	if math.Abs(measured-predicted)/measured > 0.15 {
		t.Errorf("Eq.1 prediction %g vs measured %g differs >15%% at light load", predicted, measured)
	}
}

// Under heavy closed-loop load with a saturated bus, Eq. 1 should still
// predict the right order of magnitude (the paper reports it as a good
// approximation; we accept 35%).
func TestResponseMatchesEq1HeavyLoad(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 8)
	rng := rand.New(rand.NewSource(13))
	const customers = 16
	var totalResp float64
	var n int
	var issue func()
	issue = func() {
		start := eng.Now()
		r := &Request{Bank: rng.Intn(8), Row: int32(rng.Intn(4096))}
		r.Done = func() {
			totalResp += eng.Now() - start
			n++
			after(eng, 20, issue) // short think: memory-bound
		}
		c.Submit(r)
	}
	for i := 0; i < customers; i++ {
		issue()
	}
	warm := c.Counters()
	eng.RunUntil(2e6)
	nWarm := n
	respWarm := totalResp
	eng.RunUntil(6e6)
	delta := c.Counters().Sub(warm)
	measured := (totalResp - respWarm) / float64(n-nWarm)
	predicted := delta.MemStats(DDR3()).Response(c.TransferTime())
	if rel := math.Abs(measured-predicted) / measured; rel > 0.35 {
		t.Errorf("Eq.1 heavy-load error %.0f%%: predicted %g measured %g", rel*100, predicted, measured)
	}
}

// Cross-check against exact MVA on the blocking-free network: the
// simulator (with blocking) must show response at or above MVA's.
func TestSimAtLeastMVA(t *testing.T) {
	eng := engine.New()
	c := newTestController(t, eng, 8)
	rng := rand.New(rand.NewSource(17))
	const customers = 8
	const think = 200.0
	var totalResp float64
	var n int
	var issue func()
	issue = func() {
		start := eng.Now()
		r := &Request{Bank: rng.Intn(8), Row: int32(rng.Intn(4096))}
		r.Done = func() {
			totalResp += eng.Now() - start
			n++
			after(eng, think, issue)
		}
		c.Submit(r)
	}
	for i := 0; i < customers; i++ {
		issue()
	}
	eng.RunUntil(4e6)
	measured := totalResp / float64(n)
	ctr := c.Counters()
	sm := ctr.SvcSum / float64(ctr.SvcCount)
	mvaResp, _ := qmodel.MVA(customers, think, 8, sm, c.TransferTime())
	if measured < mvaResp*0.9 {
		t.Errorf("simulated response %g below MVA lower bound %g", measured, mvaResp)
	}
}

func BenchmarkControllerThroughput(b *testing.B) {
	eng := engine.New()
	c, _ := NewController(eng, 32, DDR3(), DefaultPower(), 0.8)
	rng := rand.New(rand.NewSource(1))
	var issue func()
	issue = func() {
		r := &Request{Bank: rng.Intn(32), Row: int32(rng.Intn(128))}
		r.Done = func() { after(eng, 50, issue) }
		c.Submit(r)
	}
	for i := 0; i < 16; i++ {
		issue()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
