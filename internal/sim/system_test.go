package sim

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func mustWorkload(t *testing.T, mix string, n int) *workload.Workload {
	t.Helper()
	spec, err := workload.MixByName(mix)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Instantiate(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// smallConfig shrinks the epoch so tests run fast.
func smallConfig(n int) Config {
	cfg := DefaultConfig(n)
	cfg.EpochNs = 1e6   // 1 ms
	cfg.ProfileNs = 1e5 // 100 µs
	return cfg
}

func TestNewValidation(t *testing.T) {
	wl := mustWorkload(t, "MID1", 4)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"mismatched workload", func(c *Config) { c.Cores = 8 }},
		{"no controllers", func(c *Config) { c.Controllers = 0 }},
		{"profile ≥ epoch", func(c *Config) { c.ProfileNs = c.EpochNs }},
		{"zero epoch", func(c *Config) { c.EpochNs = 0 }},
		{"nil ladder", func(c *Config) { c.CoreLadder = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(4)
			tc.mut(&cfg)
			if _, err := New(cfg, wl); err == nil {
				t.Error("bad config accepted")
			}
		})
	}
}

func TestDefaultConfigScalesWithCores(t *testing.T) {
	c16 := DefaultConfig(16)
	c64 := DefaultConfig(64)
	if c16.BanksPerController != 32 || c64.BanksPerController != 64 {
		t.Errorf("banks: 16-core=%d 64-core=%d", c16.BanksPerController, c64.BanksPerController)
	}
	if c64.MemPower.StaticW != 2*c16.MemPower.StaticW {
		t.Error("64-core memory power not doubled (8 channels)")
	}
}

func TestEpochProtocolAndCounters(t *testing.T) {
	wl := mustWorkload(t, "MID1", 4)
	cfg := smallConfig(4)
	sys, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()

	prof := sys.RunProfile()
	if prof.WindowNs != cfg.ProfileNs {
		t.Errorf("profile window %g, want %g", prof.WindowNs, cfg.ProfileNs)
	}
	if len(prof.Cores) != 4 || len(prof.Mem) != 1 {
		t.Fatalf("profile shape: %d cores %d mem", len(prof.Cores), len(prof.Mem))
	}
	for i, cp := range prof.Cores {
		if cp.Counters.Instructions <= 0 {
			t.Errorf("core %d made no progress", i)
		}
		if cp.ZBarNs <= 0 {
			t.Errorf("core %d has no think-time estimate", i)
		}
		if cp.FreqGHz != 4.0 {
			t.Errorf("core %d not at max frequency initially", i)
		}
		if cp.PowerW <= 0 {
			t.Errorf("core %d power %g", i, cp.PowerW)
		}
		if cp.IPA <= 0 {
			t.Errorf("core %d IPA %g", i, cp.IPA)
		}
	}
	if !prof.Mem[0].Stats.Valid() {
		t.Errorf("invalid mem stats: %+v", prof.Mem[0].Stats)
	}

	// Apply a lower operating point and finish the epoch.
	if err := sys.Apply([]int{0, 0, 0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	rest := sys.FinishEpoch()
	if rest.WindowNs != cfg.EpochNs-cfg.ProfileNs {
		t.Errorf("rest window %g", rest.WindowNs)
	}
	if sys.epoch != 1 {
		t.Errorf("epoch = %d, want 1", sys.epoch)
	}
	// Lower frequencies → lower power in the rest window than profile.
	if rest.TotalPowerW >= prof.TotalPowerW {
		t.Errorf("power did not drop after throttling: %g → %g", prof.TotalPowerW, rest.TotalPowerW)
	}
	combined := sys.CombinePower(prof, rest)
	lo, hi := math.Min(prof.TotalPowerW, rest.TotalPowerW), math.Max(prof.TotalPowerW, rest.TotalPowerW)
	if combined < lo || combined > hi {
		t.Errorf("combined power %g outside [%g, %g]", combined, lo, hi)
	}
}

func TestApplyValidation(t *testing.T) {
	wl := mustWorkload(t, "MID1", 4)
	sys, err := New(smallConfig(4), wl)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if err := sys.Apply([]int{0, 0}, 0); err == nil {
		t.Error("short steps accepted")
	}
	if err := sys.Apply([]int{0, 0, 0, 99}, 0); err == nil {
		t.Error("out-of-range core step accepted")
	}
	if err := sys.Apply([]int{0, 0, 0, 0}, -1); err == nil {
		t.Error("negative mem step accepted")
	}
}

func TestPeakPowerCalibration(t *testing.T) {
	// Paper: ~120 W at 16 cores, ~60 W at 4, ~210 W at 32, ~375 W at 64.
	wants := map[int]struct{ lo, hi float64 }{
		4:  {53, 75},
		16: {106, 134},
		32: {180, 240},
		64: {330, 420},
	}
	for n, want := range wants {
		var mixName string
		if n == 4 {
			mixName = "MIX1"
		} else {
			mixName = "MIX1"
		}
		wl := mustWorkload(t, mixName, n)
		sys, err := New(DefaultConfig(n), wl)
		if err != nil {
			t.Fatal(err)
		}
		got := sys.PeakPowerW()
		if got < want.lo || got > want.hi {
			t.Errorf("%d cores: peak %g W outside [%g, %g]", n, got, want.lo, want.hi)
		}
	}
}

func TestMemFrequencyPlumbing(t *testing.T) {
	wl := mustWorkload(t, "MEM1", 4)
	sys, err := New(smallConfig(4), wl)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if got := sys.Ctls[0].BusFreq(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("initial mem freq %g", got)
	}
	if got := sys.SbBarNs(); math.Abs(got-5.0) > 1e-9 {
		t.Errorf("SbBar = %g, want 5", got)
	}
	sys.RunProfile()
	if err := sys.Apply([]int{9, 9, 9, 9}, 0); err != nil {
		t.Fatal(err)
	}
	if got := sys.Ctls[0].BusFreq(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("mem freq after Apply = %g, want 0.2", got)
	}
}

func TestSkewedAccessDistribution(t *testing.T) {
	wl := mustWorkload(t, "MEM1", 8)
	cfg := smallConfig(8)
	cfg.Controllers = 4
	cfg.BanksPerController = 8
	cfg.SkewedAccess = true
	sys, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	probs := sys.AccessProb()
	for i, row := range probs {
		sum := 0.0
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("core %d probs sum %g", i, sum)
		}
		if row[i%4] != 0.85 {
			t.Errorf("core %d home prob %g, want 0.85", i, row[i%4])
		}
	}
	// Run a little and verify home controllers dominate.
	sys.Start()
	sys.RunProfile()
	prof := sys.FinishEpoch()
	tot := int64(0)
	for _, mp := range prof.Mem {
		tot += mp.Counters.Arrivals
	}
	if tot == 0 {
		t.Fatal("no memory traffic")
	}
}

func TestUniformMultiController(t *testing.T) {
	wl := mustWorkload(t, "MEM1", 8)
	cfg := smallConfig(8)
	cfg.Controllers = 4
	cfg.BanksPerController = 8
	sys, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	sys.RunProfile()
	rest := sys.FinishEpoch()
	// Traffic should spread across all four controllers roughly evenly.
	var min, max int64 = 1 << 62, 0
	for _, mp := range rest.Mem {
		if mp.Counters.Arrivals < min {
			min = mp.Counters.Arrivals
		}
		if mp.Counters.Arrivals > max {
			max = mp.Counters.Arrivals
		}
	}
	if min == 0 || float64(max)/float64(min) > 2.0 {
		t.Errorf("controller imbalance under uniform access: min=%d max=%d", min, max)
	}
}

func TestPhasesAdvanceEachEpoch(t *testing.T) {
	wl := mustWorkload(t, "MIX3", 4)
	cfg := smallConfig(4)
	sys, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	// Collect per-epoch miss intensity over several epochs; phase drift
	// must change it measurably for a phased app.
	var mpkis []float64
	for e := 0; e < 12; e++ {
		sys.RunProfile()
		rest := sys.FinishEpoch()
		c := rest.Cores[0].Counters // equake: PhaseAmp 0.25
		if c.Instructions > 0 {
			mpkis = append(mpkis, float64(c.Misses)/c.Instructions*1000)
		}
	}
	if len(mpkis) < 10 {
		t.Fatal("not enough epochs measured")
	}
	min, max := mpkis[0], mpkis[0]
	for _, v := range mpkis {
		min, max = math.Min(min, v), math.Max(max, v)
	}
	if (max-min)/min < 0.05 {
		t.Errorf("no phase variation visible: MPKI range [%g, %g]", min, max)
	}
}

func TestMeasuredMPKIMatchesTableIII(t *testing.T) {
	// End-to-end: simulator-measured workload MPKI tracks Table III.
	for _, mixName := range []string{"ILP1", "MID2", "MEM2"} {
		spec, _ := workload.MixByName(mixName)
		wl := mustWorkload(t, mixName, 4)
		cfg := smallConfig(4)
		cfg.EpochNs = 4e6
		sys, err := New(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		sys.Start()
		sys.RunProfile()
		rest := sys.FinishEpoch()
		var instr, misses float64
		for _, cp := range rest.Cores {
			instr += cp.Counters.Instructions
			misses += float64(cp.Counters.Misses)
		}
		got := misses / instr * 1000
		// Phases modulate intensity ±amp; allow 30%.
		if math.Abs(got-spec.MPKI)/spec.MPKI > 0.30 {
			t.Errorf("%s: simulated MPKI %g vs table %g", mixName, got, spec.MPKI)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, float64) {
		wl := mustWorkload(t, "MIX4", 4)
		sys, err := New(smallConfig(4), wl)
		if err != nil {
			t.Fatal(err)
		}
		sys.Start()
		p := sys.RunProfile()
		sys.Apply([]int{3, 3, 3, 3}, 4)
		r := sys.FinishEpoch()
		return p.TotalPowerW, r.Cores[2].Counters.Instructions
	}
	p1, i1 := run()
	p2, i2 := run()
	if p1 != p2 || i1 != i2 {
		t.Errorf("runs diverged: (%g,%g) vs (%g,%g)", p1, i1, p2, i2)
	}
}

// The profiling window is a tenth of the epoch up to the paper's 300 µs:
// a 5 ms epoch profiles over 300 µs, not 500.
func TestProfileWindowNs(t *testing.T) {
	for _, c := range []struct{ epoch, want float64 }{
		{1e5, 1e4}, {1e6, 1e5}, {3e6, 3e5}, {5e6, 3e5}, {2e7, 3e5},
	} {
		if got := ProfileWindowNs(c.epoch); got != c.want {
			t.Errorf("ProfileWindowNs(%g) = %g, want %g", c.epoch, got, c.want)
		}
	}
}
