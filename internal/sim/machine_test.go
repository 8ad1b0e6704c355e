package sim

import (
	"testing"

	"repro/internal/cpusim"
	"repro/internal/dvfs"
	"repro/internal/workload"
)

func bigLittle8() Config {
	cfg := DefaultConfig(8)
	cfg.EpochNs = 5e5
	cfg.ProfileNs = 5e4
	cfg.Machine = &MachineSpec{
		Name: "bl",
		Classes: []CoreClass{
			{Name: "big", Count: 4},
			{Name: "little", Count: 4,
				Ladder:       dvfs.EfficiencyCoreLadder(),
				Power:        cpusim.PowerConfig{DynMaxW: 1.5, StaticW: 0.2, GateFrac: 0.12},
				ExecCPIScale: 1.25},
		},
	}
	return cfg
}

func TestLayoutResolution(t *testing.T) {
	// No machine spec: one implicit unnamed class, so every core carries
	// the config ladder and power — N equal ladders, not a special form.
	legacy := DefaultConfig(4)
	l, err := legacy.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Ladders()) != 4 {
		t.Fatalf("spec-less layout publishes %d ladders for 4 cores", len(l.Ladders()))
	}
	for i, lad := range l.Ladders() {
		if lad != legacy.CoreLadder || l.Ladder(i) != lad {
			t.Errorf("core %d of the spec-less layout is not on the config ladder", i)
		}
	}
	if l.Power(3) != legacy.CorePower || l.ExecCPIScale(0) != 1 {
		t.Error("spec-less layout does not inherit config power / unit CPI scale")
	}
	noLadder := DefaultConfig(4)
	noLadder.CoreLadder = nil
	if _, err := noLadder.Layout(); err == nil {
		t.Error("layout accepted a config with no core ladder")
	}

	// Heterogeneous config: per-core resolution in class order.
	cfg := bigLittle8()
	l, err = cfg.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Ladders()) != 8 {
		t.Fatalf("big.LITTLE layout publishes %d ladders for 8 cores", len(l.Ladders()))
	}
	for i := 0; i < 4; i++ {
		if l.Ladder(i) != cfg.CoreLadder || l.ExecCPIScale(i) != 1 {
			t.Errorf("core %d not resolved as a big core", i)
		}
		if l.Ladder(4+i).Max() != 2.4 || l.ExecCPIScale(4+i) != 1.25 {
			t.Errorf("core %d not resolved as a little core", 4+i)
		}
		if l.Power(4+i).DynMaxW != 1.5 {
			t.Errorf("little core %d power not applied", 4+i)
		}
	}

	// A single class with its own ladder puts every core on that ladder.
	one := DefaultConfig(4)
	one.Machine = &MachineSpec{Name: "flat", Classes: []CoreClass{{Name: "all", Count: 4, Ladder: dvfs.BinnedCoreLadder()}}}
	l, err = one.Layout()
	if err != nil {
		t.Fatal(err)
	}
	for i, lad := range l.Ladders() {
		if lad != one.Machine.Classes[0].Ladder || lad.Max() != 3.6 {
			t.Errorf("core %d of the single-class machine is not on its class ladder", i)
		}
	}
}

// Fingerprints identify machines by content: structurally different
// specs must differ even with colliding (or empty) names, and equal
// specs must agree.
func TestMachineSpecFingerprint(t *testing.T) {
	mk := func(littleDyn float64) *MachineSpec {
		return &MachineSpec{Classes: []CoreClass{
			{Name: "big", Count: 4},
			{Name: "little", Count: 4, Ladder: dvfs.EfficiencyCoreLadder(),
				Power: cpusim.PowerConfig{DynMaxW: littleDyn, StaticW: 0.2, GateFrac: 0.12}},
		}}
	}
	if mk(1.5).Fingerprint() != mk(1.5).Fingerprint() {
		t.Error("equal unnamed specs fingerprint differently")
	}
	if mk(1.5).Fingerprint() == mk(2.5).Fingerprint() {
		t.Error("different power calibrations share a fingerprint")
	}
	a := mk(1.5)
	b := mk(1.5)
	b.Classes[1].Ladder = dvfs.BinnedCoreLadder()
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different ladders share a fingerprint")
	}
	c := mk(1.5)
	c.Classes[1].Apps = []string{"swim"}
	c.Classes[0].Apps = []string{"crafty"}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different placements share a fingerprint")
	}
}

// The built system enforces each core's own ladder bounds in Apply and
// folds class power into the peak.
func TestHeteroSystemApplyAndPeak(t *testing.T) {
	cfg := bigLittle8()
	wl, err := workload.Instantiate(workload.TableIII[14], cfg.Cores) // MIX3
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	steps := []int{9, 9, 9, 9, 7, 7, 7, 7}
	if err := sys.Apply(steps, 0); err != nil {
		t.Fatalf("valid per-class steps rejected: %v", err)
	}
	// Step 9 is valid on the 10-step big ladder but not on the 8-step
	// little ladder.
	steps[4] = 9
	if err := sys.Apply(steps, 0); err == nil {
		t.Error("little-core step beyond its own ladder accepted")
	}

	// Peak power must reflect the little cores' lower calibration: it
	// sits strictly below the same machine built homogeneous.
	hom := cfg
	hom.Machine = nil
	homSys, err := New(hom, wl)
	if err != nil {
		t.Fatal(err)
	}
	if sys.PeakPowerW() >= homSys.PeakPowerW() {
		t.Errorf("big.LITTLE peak %.1f W not below homogeneous peak %.1f W", sys.PeakPowerW(), homSys.PeakPowerW())
	}
}

// ExecCPIScale slows the class's cores: with everything else equal, a
// scaled class retires fewer instructions over the same window.
func TestExecCPIScaleSlowsClass(t *testing.T) {
	run := func(scale float64) float64 {
		cfg := DefaultConfig(4)
		cfg.EpochNs = 5e5
		cfg.ProfileNs = 5e4
		cfg.Machine = &MachineSpec{Name: "s", Classes: []CoreClass{{Name: "all", Count: 4, ExecCPIScale: scale}}}
		wl, err := workload.Instantiate(workload.TableIII[0], 4)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := New(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		sys.Start()
		sys.RunProfile()
		p := sys.FinishEpoch()
		total := 0.0
		for _, c := range p.Cores {
			total += c.Counters.Instructions
		}
		return total
	}
	fast, slow := run(1), run(2)
	if slow >= fast {
		t.Errorf("ExecCPIScale 2 retired %.0f instructions, want fewer than %.0f", slow, fast)
	}
}
