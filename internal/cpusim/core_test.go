package cpusim

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/workload"
)

func testApp(mpki float64) workload.App {
	return workload.App{
		AppProfile: workload.AppProfile{
			Name:        "test",
			ExecCPI:     1.2,
			Activity:    0.9,
			RowLocality: 0.5,
			WriteFrac:   0.3,
		},
		MPKI: mpki,
		WPKI: mpki * 0.3,
	}
}

func newRig(t *testing.T, mpki float64, ooo bool) (*engine.Engine, *memsim.Controller, *Core) {
	t.Helper()
	eng := engine.New()
	ctl, err := memsim.NewController(eng, 32, memsim.DDR3(), memsim.DefaultPower(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		ID:          0,
		App:         testApp(mpki),
		Engine:      eng,
		Controllers: []*memsim.Controller{ctl},
		FreqMax:     4.0,
		OoO:         ooo,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, ctl, c
}

func TestNewErrors(t *testing.T) {
	eng := engine.New()
	ctl, _ := memsim.NewController(eng, 4, memsim.DDR3(), memsim.DefaultPower(), 0.8)
	base := Config{ID: 0, App: testApp(1), Engine: eng, Controllers: []*memsim.Controller{ctl}, FreqMax: 4}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil engine", func(c *Config) { c.Engine = nil }},
		{"no controllers", func(c *Config) { c.Controllers = nil }},
		{"zero freq", func(c *Config) { c.FreqMax = 0 }},
		{"zero mpki", func(c *Config) { c.App.MPKI = 0 }},
		{"prob shape", func(c *Config) { c.AccessProb = []float64{0.5, 0.5} }},
		{"negative prob", func(c *Config) { c.AccessProb = []float64{-1} }},
		{"zero probs", func(c *Config) { c.AccessProb = []float64{0} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("bad config accepted")
			}
		})
	}
}

func TestInOrderExecutesAndMisses(t *testing.T) {
	eng, ctl, c := newRig(t, 10, false) // 10 MPKI → 100 instr/miss
	c.Start()
	eng.RunUntil(5e6) // 5 ms
	ctr := c.Counters()
	if ctr.Instructions <= 0 || ctr.Misses <= 0 {
		t.Fatalf("no progress: %+v", ctr)
	}
	// Measured MPKI should match the configured rate within sampling noise.
	mpki := float64(ctr.Misses) / ctr.Instructions * 1000
	if math.Abs(mpki-10)/10 > 0.1 {
		t.Errorf("measured MPKI %g, want ≈10", mpki)
	}
	// Writebacks at ≈30% of misses.
	wr := float64(ctr.Writebacks) / float64(ctr.Misses)
	if math.Abs(wr-0.3) > 0.05 {
		t.Errorf("writeback ratio %g, want ≈0.3", wr)
	}
	// All memory traffic landed at the controller.
	mc := ctl.Counters()
	if mc.Reads != ctr.Misses {
		t.Errorf("controller saw %d reads, core issued %d misses", mc.Reads, ctr.Misses)
	}
	// Busy + stall accounts for (almost) the whole window; busy time is
	// credited when a burst is scheduled, so the in-flight burst at the
	// horizon can overshoot slightly.
	total := ctr.BusyNs + ctr.StallNs
	if total > 5.05e6 || total < 4.5e6 {
		t.Errorf("busy+stall = %g ns over a 5e6 ns window", total)
	}
	if c.maxOut != 1 {
		t.Errorf("in-order maxOut = %d", c.maxOut)
	}
}

func TestInOrderNeverOverlapsMisses(t *testing.T) {
	eng, ctl, c := newRig(t, 30, false)
	c.Start()
	// Sample the controller population frequently: an in-order core can
	// have at most 1 outstanding read (+ writebacks in flight).
	for i := 0; i < 2000; i++ {
		eng.RunUntil(float64(i) * 1000)
		reads := 0
		_ = reads
		if q := ctl.QueuedRequests(); q > 8 {
			t.Fatalf("implausible queue depth %d for a single in-order core", q)
		}
	}
}

func TestThinkTimeScalesWithFrequency(t *testing.T) {
	// At half frequency, busy time per instruction doubles → for a
	// fixed horizon, instructions roughly halve for a CPU-bound app.
	run := func(freq float64) float64 {
		eng, _, c := newRig(t, 0.2, false) // CPU-bound: 5000 instr/miss
		c.SetFreq(freq)
		c.Start()
		eng.RunUntil(5e6)
		return c.Counters().Instructions
	}
	fast := run(4.0)
	slow := run(2.0)
	ratio := fast / slow
	if math.Abs(ratio-2.0) > 0.2 {
		t.Errorf("instruction ratio at 2× frequency = %g, want ≈2 for CPU-bound", ratio)
	}
}

func TestSetFreqTransitionStall(t *testing.T) {
	eng, _, c := newRig(t, 1, false)
	c.Start()
	eng.RunUntil(1e5)
	before := c.Counters()
	c.SetFreq(3.0) // one transition
	eng.RunUntil(3e5)
	delta := c.Counters().Sub(before)
	if delta.StallNs < TransitionStallNs {
		t.Errorf("stall %g ns < transition stall %g", delta.StallNs, TransitionStallNs)
	}
	// Same frequency: no stall charged.
	c2Before := c.Counters()
	c.SetFreq(3.0)
	eng.RunUntil(3.1e5)
	_ = c2Before
	if c.Freq() != 3.0 {
		t.Errorf("freq = %g", c.Freq())
	}
	// Invalid frequency ignored.
	c.SetFreq(-1)
	if c.Freq() != 3.0 {
		t.Error("negative frequency accepted")
	}
}

func TestOoOAllowsMultipleOutstanding(t *testing.T) {
	// 50 MPKI → 20 instructions per miss → window of 128 allows 6
	// outstanding misses.
	eng, ctl, c := newRig(t, 50, true)
	if got := c.maxOut; got != 6 {
		t.Fatalf("maxOut = %d, want 6", got)
	}
	c.Start()
	maxSeen := 0
	for i := 0; i < 5000; i++ {
		eng.RunUntil(float64(i) * 200)
		if q := ctl.QueuedRequests(); q > maxSeen {
			maxSeen = q
		}
	}
	// Reads alone can reach 6; with writebacks the population exceeds an
	// in-order core's but must respect the window bound loosely.
	if maxSeen < 2 {
		t.Errorf("never saw memory-level parallelism (max %d)", maxSeen)
	}
}

func TestOoOFasterThanInOrderWhenMemoryBound(t *testing.T) {
	run := func(ooo bool) float64 {
		eng, _, c := newRig(t, 50, ooo)
		c.Start()
		eng.RunUntil(5e6)
		return c.Counters().Instructions
	}
	inOrder := run(false)
	ooo := run(true)
	if ooo < inOrder*1.5 {
		t.Errorf("OoO %g instr vs in-order %g: want ≥1.5× for memory-bound", ooo, inOrder)
	}
}

func TestOoOCPUBoundDegeneratesToInOrder(t *testing.T) {
	// 1 MPKI → 1000 instr/miss ≫ window → maxOut = 1.
	_, _, c := newRig(t, 1, true)
	if got := c.maxOut; got != 1 {
		t.Errorf("maxOut = %d, want 1 for sparse misses", got)
	}
}

func TestSetPhaseChangesIntensity(t *testing.T) {
	eng, _, c := newRig(t, 10, false)
	c.Start()
	eng.RunUntil(2e6)
	base := c.Counters()
	c.SetPhase(2.0) // double the memory intensity
	eng.RunUntil(4e6)
	delta := c.Counters().Sub(base)
	mpki := float64(delta.Misses) / delta.Instructions * 1000
	if math.Abs(mpki-20)/20 > 0.15 {
		t.Errorf("phase-doubled MPKI = %g, want ≈20", mpki)
	}
	// Degenerate multiplier resets to 1.
	c.SetPhase(0)
	if c.effIPA() != c.App.InstrPerMiss() {
		t.Error("zero phase multiplier not normalized")
	}
}

func TestStartIdempotent(t *testing.T) {
	eng, _, c := newRig(t, 5, false)
	c.Start()
	c.Start() // second call must not double-schedule
	eng.RunUntil(1e5)
	// In-order: at most one burst in flight; if Start double-scheduled,
	// instruction throughput would double. Compare against the expected
	// upper bound: window / (CPI/freq) instructions.
	maxInstr := 1e5 / (1.2 / 4.0) * 1.05
	if got := c.Counters().Instructions; got > maxInstr {
		t.Errorf("instructions %g exceed single-stream bound %g (double start?)", got, maxInstr)
	}
}

func TestPowerModel(t *testing.T) {
	_, _, c := newRig(t, 1, false)
	pcfg := DefaultPower()
	// Full busy at max frequency/voltage.
	full := c.Power(Counters{BusyNs: 1000}, 1000, 1.0, pcfg)
	want := 0.5 + 4.6*0.9*1.0
	if math.Abs(full-want) > 1e-9 {
		t.Errorf("full power = %g, want %g", full, want)
	}
	// Fully stalled: only gated residual.
	idle := c.Power(Counters{BusyNs: 0}, 1000, 1.0, pcfg)
	wantIdle := 0.5 + 4.6*0.9*0.15
	if math.Abs(idle-wantIdle) > 1e-9 {
		t.Errorf("stalled power = %g, want %g", idle, wantIdle)
	}
	// Power decreases with voltage/frequency.
	c.SetFreq(2.0)
	lower := c.Power(Counters{BusyNs: 1000}, 1000, 0.7, pcfg)
	if lower >= full {
		t.Errorf("power did not drop with DVFS: %g vs %g", lower, full)
	}
	// Degenerate window → static only.
	if got := c.Power(Counters{}, 0, 1, pcfg); got != pcfg.StaticW {
		t.Errorf("zero-window power = %g", got)
	}
	if got := c.PeakPower(pcfg); math.Abs(got-want) > 1e-9 {
		t.Errorf("PeakPower = %g, want %g", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Counters {
		eng := engine.New()
		ctl, _ := memsim.NewController(eng, 32, memsim.DDR3(), memsim.DefaultPower(), 0.8)
		c, _ := New(Config{ID: 3, App: testApp(8), Engine: eng, Controllers: []*memsim.Controller{ctl}, FreqMax: 4, Seed: 99})
		c.Start()
		eng.RunUntil(2e6)
		return c.Counters()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical seeds diverged: %+v vs %+v", a, b)
	}
}

func TestMultiControllerRouting(t *testing.T) {
	eng := engine.New()
	mk := func() *memsim.Controller {
		ctl, _ := memsim.NewController(eng, 8, memsim.DDR3(), memsim.DefaultPower(), 0.8)
		return ctl
	}
	c0, c1 := mk(), mk()
	// 90/10 skew.
	core, err := New(Config{
		ID: 0, App: testApp(20), Engine: eng,
		Controllers: []*memsim.Controller{c0, c1},
		AccessProb:  []float64{0.9, 0.1},
		FreqMax:     4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	core.Start()
	eng.RunUntil(5e6)
	n0 := c0.Counters().Arrivals
	n1 := c1.Counters().Arrivals
	total := float64(n0 + n1)
	if total == 0 {
		t.Fatal("no traffic")
	}
	frac := float64(n0) / total
	// Row-locality repeats inflate the home-controller share; just require
	// a strong skew toward controller 0.
	if frac < 0.8 {
		t.Errorf("controller 0 got %.0f%% of traffic, want ≥80%%", frac*100)
	}
}
