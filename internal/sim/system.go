// Package sim assembles the full many-core system simulator: N cores
// (cpusim) attached to one or more memory controllers (memsim) under a
// single discrete-event engine, with the epoch/profiling protocol of the
// FastCap paper's §III-C — each epoch starts with a 300 µs profiling
// window whose counters feed the capping policy, after which new DVFS
// settings apply for the remainder of the epoch.
package sim

import (
	"fmt"

	"repro/internal/cpusim"
	"repro/internal/dvfs"
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/qmodel"
	"repro/internal/workload"
)

// Config describes a machine, defaulting to the paper's Table II system.
type Config struct {
	Cores       int
	OoO         bool
	Controllers int
	// BanksPerController is the number of DRAM banks behind each
	// controller (channels × banks folded together).
	BanksPerController int
	// SkewedAccess routes 85% of each core's traffic to its home
	// controller (i mod K) instead of uniformly (§IV-B skewed study).
	SkewedAccess bool

	CoreLadder *dvfs.Ladder
	MemLadder  *dvfs.Ladder

	// Machine, when non-nil, describes a heterogeneous machine of named
	// core classes (per-class ladders, power curves, ExecCPI scaling and
	// app placement). Class counts must sum to Cores. Nil is the
	// homogeneous machine, one implicit class: every core on
	// CoreLadder/CorePower.
	Machine *MachineSpec

	EpochNs   float64
	ProfileNs float64

	// PhaseSchedule, when non-empty, scales every app's per-epoch phase
	// multiplier by a step function of the epoch index — diurnal load,
	// batch-window surges and other mid-run intensity changes the
	// per-app sinusoidal drift cannot express. Nil keeps runs
	// byte-identical to builds without the field.
	PhaseSchedule workload.PhaseSchedule

	CorePower cpusim.PowerConfig
	MemPower  memsim.PowerConfig
	// PsW is the frequency-independent power of everything else (disks,
	// NICs, L2, ...): a fixed 10 W in the paper.
	PsW float64

	Timing memsim.Timing
	Seed   int64
}

// DefaultConfig mirrors the paper's evaluation platform for n cores:
// 4 DDR3 channels (32 banks) for up to 32 cores, 8 channels (64 banks)
// for more; one memory controller; 5 ms epochs with 300 µs profiling.
func DefaultConfig(n int) Config {
	banks := 32
	memPower := memsim.DefaultPower()
	if n > 32 {
		banks = 64
		// Twice the channels: dynamic and static memory power double.
		memPower = memsim.PowerConfig{
			StaticW:   memPower.StaticW * 2,
			ClockW:    memPower.ClockW * 2,
			TransferW: memPower.TransferW * 2,
		}
	}
	return Config{
		Cores:              n,
		Controllers:        1,
		BanksPerController: banks,
		CoreLadder:         dvfs.DefaultCoreLadder(),
		MemLadder:          dvfs.DefaultMemLadder(),
		EpochNs:            5e6,
		ProfileNs:          3e5,
		CorePower:          cpusim.DefaultPower(),
		MemPower:           memPower,
		PsW:                10,
		Timing:             memsim.DDR3(),
		Seed:               1,
	}
}

// ProfileWindowNs is the profiling window of an epochNs-long epoch: a
// tenth of the epoch, capped at the paper's 300 µs profiling phase.
func ProfileWindowNs(epochNs float64) float64 {
	w := epochNs / 10
	if w > 3e5 {
		w = 3e5
	}
	return w
}

// System is an instantiated machine running one workload.
type System struct {
	Cfg Config
	Eng *engine.Engine

	Cores []*cpusim.Core
	Ctls  []*memsim.Controller

	Workload *workload.Workload

	accessProb [][]float64
	layout     *MachineLayout
	epoch      int

	lastCore []cpusim.Counters
	lastMem  []memsim.Counters

	// profBuf and restBuf back the Profiles returned by RunProfile and
	// FinishEpoch. Each is valid until the next call of the same method,
	// which is exactly the epoch protocol the runner follows; reusing
	// them removes two slice allocations per window per epoch.
	profBuf Profile
	restBuf Profile
}

// New builds a system for the given workload; len(wl.Apps) must equal
// cfg.Cores.
func New(cfg Config, wl *workload.Workload) (*System, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: no cores")
	}
	if len(wl.Apps) != cfg.Cores {
		return nil, fmt.Errorf("sim: workload has %d apps for %d cores", len(wl.Apps), cfg.Cores)
	}
	if cfg.Controllers <= 0 {
		return nil, fmt.Errorf("sim: no memory controllers")
	}
	if cfg.EpochNs <= 0 || cfg.ProfileNs <= 0 || cfg.ProfileNs >= cfg.EpochNs {
		return nil, fmt.Errorf("sim: invalid epoch/profile lengths %g/%g", cfg.EpochNs, cfg.ProfileNs)
	}
	if cfg.MemLadder == nil {
		return nil, fmt.Errorf("sim: missing memory DVFS ladder")
	}
	if err := cfg.PhaseSchedule.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	layout, err := cfg.Layout()
	if err != nil {
		return nil, err
	}
	eng := engine.New()
	s := &System{Cfg: cfg, Eng: eng, Workload: wl, layout: layout}

	banks := cfg.BanksPerController
	if banks <= 0 {
		banks = 32
	}
	for k := 0; k < cfg.Controllers; k++ {
		ctl, err := memsim.NewController(eng, banks, cfg.Timing, cfg.MemPower, cfg.MemLadder.Max())
		if err != nil {
			return nil, err
		}
		s.Ctls = append(s.Ctls, ctl)
	}

	s.accessProb = make([][]float64, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		probs := make([]float64, cfg.Controllers)
		if cfg.Controllers == 1 {
			probs[0] = 1
		} else if cfg.SkewedAccess {
			home := i % cfg.Controllers
			rest := 0.15 / float64(cfg.Controllers-1)
			for k := range probs {
				probs[k] = rest
			}
			probs[home] = 0.85
		} else {
			for k := range probs {
				probs[k] = 1 / float64(cfg.Controllers)
			}
		}
		s.accessProb[i] = probs

		app := wl.Apps[i]
		if scale := layout.ExecCPIScale(i); scale != 1 {
			app.ExecCPI *= scale
		}
		core, err := cpusim.New(cpusim.Config{
			ID:          i,
			App:         app,
			Engine:      eng,
			Controllers: s.Ctls,
			AccessProb:  probs,
			FreqMax:     layout.Ladder(i).Max(),
			OoO:         cfg.OoO,
			Seed:        cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		s.Cores = append(s.Cores, core)
	}
	s.lastCore = make([]cpusim.Counters, cfg.Cores)
	s.lastMem = make([]memsim.Counters, cfg.Controllers)
	return s, nil
}

// AccessProb returns the per-core controller access distribution
// ([core][controller]), which policies use for weighted response times.
func (s *System) AccessProb() [][]float64 { return s.accessProb }

// Start launches all cores and applies epoch-0 phases.
func (s *System) Start() {
	s.applyPhases()
	for _, c := range s.Cores {
		c.Start()
	}
}

func (s *System) applyPhases() {
	// Multiply only when a shift is in force: the scale==1 fast path
	// preserves the exact float sequence (and goldens) of schedule-free
	// runs.
	scale := s.Cfg.PhaseSchedule.ScaleAt(s.epoch)
	for _, c := range s.Cores {
		p := c.App.Phase(s.epoch)
		if scale != 1 {
			p *= scale
		}
		c.SetPhase(p)
	}
}

// CoreProfile is the per-core slice of a profiling (or epoch) window.
type CoreProfile struct {
	Counters cpusim.Counters // window delta
	FreqGHz  float64
	// PowerW is the measured average power over the window at the
	// window's operating point — the signal the online fitters consume.
	PowerW float64
	// ZBarNs is the Eq. 9 think-time estimate scaled to maximum
	// frequency: busy time per miss × f/f_max.
	ZBarNs float64
	// IPA is instructions per memory access observed in the window.
	IPA float64
}

// MemProfile is the per-controller slice of a window.
type MemProfile struct {
	Counters memsim.Counters // window delta
	Stats    qmodel.MemStats
	FreqGHz  float64
	PowerW   float64
	// MeasuredRespNs is the true mean memory response time over the
	// window (0 if idle); validation compares it to the Eq. 1 estimate.
	MeasuredRespNs float64
}

// Profile summarizes one measurement window.
type Profile struct {
	WindowNs float64
	Cores    []CoreProfile
	Mem      []MemProfile
	// TotalPowerW includes cores, memory, and Ps.
	TotalPowerW float64
}

// measureWindow computes a Profile over [since-last-snapshot, now] into
// the given buffer and refreshes the snapshots.
func (s *System) measureWindow(p *Profile, windowNs float64) {
	p.WindowNs = windowNs
	if cap(p.Cores) < len(s.Cores) {
		p.Cores = make([]CoreProfile, len(s.Cores))
	} else {
		p.Cores = p.Cores[:len(s.Cores)]
	}
	total := s.Cfg.PsW
	for i, c := range s.Cores {
		cur := c.Counters()
		delta := cur.Sub(s.lastCore[i])
		s.lastCore[i] = cur
		lad := s.layout.Ladder(i)
		voltNorm := lad.VoltAtFreq(c.Freq()) / lad.Volt(lad.MaxStep())
		pw := c.Power(delta, windowNs, voltNorm, s.layout.Power(i))
		zbar := 0.0
		ipa := 0.0
		if delta.Misses > 0 {
			zbar = delta.BusyNs / float64(delta.Misses) * (c.Freq() / lad.Max())
			ipa = delta.Instructions / float64(delta.Misses)
		}
		p.Cores[i] = CoreProfile{
			Counters: delta,
			FreqGHz:  c.Freq(),
			PowerW:   pw,
			ZBarNs:   zbar,
			IPA:      ipa,
		}
		total += pw
	}
	if cap(p.Mem) < len(s.Ctls) {
		p.Mem = make([]MemProfile, len(s.Ctls))
	} else {
		p.Mem = p.Mem[:len(s.Ctls)]
	}
	for k, ctl := range s.Ctls {
		cur := ctl.Counters()
		delta := cur.Sub(s.lastMem[k])
		s.lastMem[k] = cur
		pw := ctl.Power(delta, windowNs)
		p.Mem[k] = MemProfile{
			Counters:       delta,
			Stats:          delta.MemStats(s.Cfg.Timing),
			FreqGHz:        ctl.BusFreq(),
			PowerW:         pw,
			MeasuredRespNs: delta.MeasuredResponseNs(),
		}
		total += pw
	}
	p.TotalPowerW = total
}

// RunProfile advances the simulation through the epoch's profiling
// window and returns its measurements. Call once per epoch, first. The
// returned Profile's slices are owned by the System and remain valid
// until the next RunProfile call.
func (s *System) RunProfile() Profile {
	start := float64(s.epoch) * s.Cfg.EpochNs
	s.Eng.RunUntil(start + s.Cfg.ProfileNs)
	s.measureWindow(&s.profBuf, s.Cfg.ProfileNs)
	return s.profBuf
}

// Apply transitions the machine to the decided DVFS operating point:
// one ladder step per core plus the memory step (common to all
// controllers, as in the paper).
func (s *System) Apply(coreSteps []int, memStep int) error {
	if len(coreSteps) != len(s.Cores) {
		return fmt.Errorf("sim: %d core steps for %d cores", len(coreSteps), len(s.Cores))
	}
	if memStep < 0 || memStep >= s.Cfg.MemLadder.Len() {
		return fmt.Errorf("sim: memory step %d out of range", memStep)
	}
	for i, step := range coreSteps {
		lad := s.layout.Ladder(i)
		if step < 0 || step >= lad.Len() {
			return fmt.Errorf("sim: core %d step %d out of range", i, step)
		}
		s.Cores[i].SetFreq(lad.Freq(step))
	}
	f := s.Cfg.MemLadder.Freq(memStep)
	for _, ctl := range s.Ctls {
		ctl.SetBusFreq(f)
	}
	return nil
}

// FinishEpoch advances to the epoch boundary, measures the post-decision
// window, advances the epoch counter, and applies the next epoch's
// application phases. The returned Profile covers only the portion of
// the epoch after Apply; combine with the profiling window for
// whole-epoch averages. Its slices are owned by the System and remain
// valid until the next FinishEpoch call.
func (s *System) FinishEpoch() Profile {
	end := float64(s.epoch+1) * s.Cfg.EpochNs
	s.Eng.RunUntil(end)
	s.measureWindow(&s.restBuf, s.Cfg.EpochNs-s.Cfg.ProfileNs)
	s.epoch++
	s.applyPhases()
	return s.restBuf
}

// CombinePower returns the whole-epoch average power given the epoch's
// two windows: the window-weighted mean of their totals. Every Platform
// implementation must use this formula (replay delegates here) so that
// a replayed run reports bit-identical epoch powers.
func CombinePower(profile, rest Profile) float64 {
	return (profile.TotalPowerW*profile.WindowNs + rest.TotalPowerW*rest.WindowNs) /
		(profile.WindowNs + rest.WindowNs)
}

// CombinePower implements the Platform method via the package formula.
func (s *System) CombinePower(profile, rest Profile) float64 {
	return CombinePower(profile, rest)
}

// PeakPowerW is the nameplate full-system peak: every core at maximum
// frequency, voltage and full duty, memory saturated at full frequency,
// plus Ps. Budgets are expressed as a fraction of this value.
func (s *System) PeakPowerW() float64 {
	total := s.Cfg.PsW
	for i, c := range s.Cores {
		total += c.PeakPower(s.layout.Power(i))
	}
	for _, ctl := range s.Ctls {
		total += ctl.PeakPower()
	}
	return total
}

// SbBarNs returns the minimum bus transfer time s̄_b.
func (s *System) SbBarNs() float64 { return s.Ctls[0].MinTransferTime() }
