package cpusim

import (
	"math"
	"testing"

	"repro/internal/memsim"
)

// controllersOf wraps a single controller for Config.Controllers.
func controllersOf(ctl *memsim.Controller) []*memsim.Controller {
	return []*memsim.Controller{ctl}
}

// Writebacks must not block the core: an app with 100% writeback
// probability should retire instructions at essentially the same rate as
// one with none (the extra traffic does add memory contention, so allow
// a modest gap).
func TestWritebacksOffCriticalPath(t *testing.T) {
	run := func(wpki float64) float64 {
		app := testApp(5)
		app.WPKI = wpki
		eng, ctl, _ := newRig(t, 5, false) // rig provides engine + controller
		core, err := New(Config{ID: 1, App: app, Engine: eng, Controllers: controllersOf(ctl), FreqMax: 4, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		core.Start()
		eng.RunUntil(5e6)
		return core.Counters().Instructions
	}
	none := run(0)
	all := run(5) // WPKI == MPKI → every miss writes back
	if all < none*0.9 {
		t.Errorf("writebacks slowed the core by >10%%: %g vs %g instructions", all, none)
	}
}

func TestOoOStallAccounting(t *testing.T) {
	// OoO core: busy+stall must still account for (almost) the full
	// window even with several outstanding misses.
	eng, _, c := newRig(t, 50, true)
	c.Start()
	eng.RunUntil(5e6)
	ctr := c.Counters()
	total := ctr.BusyNs + ctr.StallNs
	if total > 5.1e6 || total < 4.0e6 {
		t.Errorf("OoO busy+stall = %g over 5e6 window", total)
	}
	if ctr.StallNs < 0 {
		t.Error("negative stall time")
	}
}

func TestOoOWindowRecomputedOnPhase(t *testing.T) {
	_, _, c := newRig(t, 50, true) // IPA 20 → maxOut 6
	if c.maxOut != 6 {
		t.Fatalf("initial maxOut = %d", c.maxOut)
	}
	c.SetPhase(0.25) // IPA 80 → maxOut 1
	if got := c.maxOut; got != 1 {
		t.Errorf("after phase 0.25: maxOut = %d, want 1", got)
	}
	c.SetPhase(4.0) // IPA 5 → maxOut 25
	if got := c.maxOut; got != 25 {
		t.Errorf("after phase 4: maxOut = %d, want 25", got)
	}
}

func TestTransitionStallChargedOnce(t *testing.T) {
	eng, _, c := newRig(t, 0.5, false)
	// A real frequency change queues exactly one transition stall.
	c.SetFreq(3.0)
	if c.extraStall != TransitionStallNs {
		t.Fatalf("pending stall %g after one transition", c.extraStall)
	}
	// Re-setting the same frequency is a no-op.
	c.SetFreq(3.0)
	if c.extraStall != TransitionStallNs {
		t.Fatalf("same-frequency SetFreq charged a stall")
	}
	// A second distinct change queues a second stall (two PLL relocks).
	c.SetFreq(2.6)
	if c.extraStall != 2*TransitionStallNs {
		t.Fatalf("pending stall %g after two transitions", c.extraStall)
	}
	// The queued stall is consumed by the next burst and lands in the
	// stall counter.
	c.Start()
	eng.RunUntil(1e6)
	if c.extraStall != 0 {
		t.Errorf("pending stall %g not consumed", c.extraStall)
	}
	if got := c.Counters().StallNs; got < 2*TransitionStallNs {
		t.Errorf("stall counter %g below the two queued transitions", got)
	}
}

// effIPA must clamp at 1 instruction per access for absurd intensities.
func TestEffIPAClamp(t *testing.T) {
	_, _, c := newRig(t, 900, false) // IPA ~1.1
	c.SetPhase(10)                   // would push IPA below 1
	if got := c.effIPA(); got != 1 {
		t.Errorf("effIPA = %g, want clamp at 1", got)
	}
}

func TestPowerScalesWithActivityFactor(t *testing.T) {
	hot := testApp(1)
	hot.Activity = 1.0
	cold := testApp(1)
	cold.Activity = 0.5
	eng, ctl, _ := newRig(t, 1, false)
	h, err := New(Config{ID: 10, App: hot, Engine: eng, Controllers: controllersOf(ctl), FreqMax: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(Config{ID: 11, App: cold, Engine: eng, Controllers: controllersOf(ctl), FreqMax: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultPower()
	ph := h.Power(Counters{BusyNs: 1000}, 1000, 1, pcfg)
	pc := c2.Power(Counters{BusyNs: 1000}, 1000, 1, pcfg)
	wantRatio := (pcfg.StaticW + pcfg.DynMaxW*1.0) / (pcfg.StaticW + pcfg.DynMaxW*0.5)
	if math.Abs(ph/pc-wantRatio) > 1e-9 {
		t.Errorf("activity power ratio %g, want %g", ph/pc, wantRatio)
	}
}
