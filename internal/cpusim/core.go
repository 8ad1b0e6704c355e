// Package cpusim models the processor cores of the FastCap system
// (paper §III-A and §IV-B): in-order, single-issue cores that alternate
// compute (think time), shared-L2 access, and blocking memory accesses —
// plus the paper's idealized out-of-order mode, where a 128-entry
// instruction window with ignored dependencies allows multiple
// outstanding misses and the think time becomes the interval between
// core *stalls*.
//
// Each core runs one application profile. Compute bursts are
// exponentially distributed around the application's instructions-per-
// miss (modulated by its phase behaviour), matching the closed-network
// think-time abstraction that FastCap's optimizer assumes.
package cpusim

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/workload"
)

// L2HitTimeNs is the shared L2 access time on the miss path: 30 CPU
// cycles at the (fixed-domain) 4 GHz nominal clock (Table II). The L2
// sits in its own voltage domain and does not scale with core frequency.
const L2HitTimeNs = 7.5

// TransitionStallNs is the core-local stall applied when the core's
// voltage/frequency changes ("tens of microseconds", §III-C).
const TransitionStallNs = 20e3

// OoOWindow is the instruction-window size of the idealized out-of-order
// mode (§IV-B).
const OoOWindow = 128

// Counters accumulate monotonically; snapshot and diff for windows.
type Counters struct {
	Instructions float64 // retired instructions (TIC)
	Misses       int64   // LLC misses = memory accesses (TLM)
	Writebacks   int64
	BusyNs       float64 // time spent executing instructions
	StallNs      float64 // time blocked on L2/memory or transitions
}

// Sub returns c - prev.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Instructions: c.Instructions - prev.Instructions,
		Misses:       c.Misses - prev.Misses,
		Writebacks:   c.Writebacks - prev.Writebacks,
		BusyNs:       c.BusyNs - prev.BusyNs,
		StallNs:      c.StallNs - prev.StallNs,
	}
}

// PowerConfig calibrates per-core power. With voltage ∝ frequency, the
// dynamic term P ∝ activity·V²f yields the paper's α ∈ [2, 3] curvature.
type PowerConfig struct {
	// DynMaxW is the dynamic power at maximum frequency/voltage with
	// activity factor 1 and no stalls.
	DynMaxW float64
	// StaticW is the per-core leakage floor.
	StaticW float64
	// GateFrac is the residual switching while stalled (clock gating
	// leaves a fraction of the clock tree toggling).
	GateFrac float64
}

// DefaultPower calibrates a core to the paper's breakdown: ~60% of a
// 120 W 16-core system is CPU, i.e. ≈4.5 W per core at peak.
func DefaultPower() PowerConfig {
	return PowerConfig{DynMaxW: 4.6, StaticW: 0.5, GateFrac: 0.15}
}

// Core is one simulated core running one application instance.
type Core struct {
	ID  int
	App workload.App

	eng *engine.Engine
	rng *rand.Rand

	// Memory routing: ctls[i] receives accesses with cumulative
	// probability cumProb[i]; a single controller uses cumProb = [1].
	ctls    []*memsim.Controller
	cumProb []float64

	freq    float64 // current core frequency, GHz
	freqMax float64
	ooo     bool
	maxOut  int // max outstanding misses (1 when in-order)

	ipaMult float64 // phase multiplier on instructions-per-miss
	ipaEff  float64 // cached effIPA() — recomputed on SetPhase
	wbProb  float64 // cached App.WritebackProb() — fixed per app

	outstanding int
	stalled     bool
	stallBegan  float64
	running     bool
	lastCtl     int
	lastBank    int
	lastRow     int32

	ctr        Counters
	extraStall float64 // pending one-shot stall (DVFS transition)

	// Steady-state scheduling is allocation-free: the compute-burst
	// timer is reused every burst, and the L2 lookup stage is a
	// flat slot pool — a miss in flight between burst retirement and
	// controller submission is an int32 slot into a dense array of
	// compact records, with a per-slot timer whose callback is created
	// once when the slot is first minted. After submission the request
	// lives in the controller's own arena; completion comes back through
	// the RegisterDemand callback installed at construction, so the
	// steady state carries no per-request closures at all.
	burstTimer   *engine.Timer
	pendingInstr float64
	l2           []l2req
	l2Timer      []*engine.Timer
	l2Free       []int32
}

// l2req is one L2-stage slot's pending request: controller index plus
// the address triple, packed so issue reads a single record.
type l2req struct {
	ctl  int32
	bank int32
	row  int32
	wb   bool
}

// l2Slot takes a free L2-stage slot, minting slot arrays (and the
// slot's issue timer) on first use.
func (c *Core) l2Slot() int32 {
	if k := len(c.l2Free) - 1; k >= 0 {
		s := c.l2Free[k]
		c.l2Free = c.l2Free[:k]
		return s
	}
	s := int32(len(c.l2Timer))
	c.l2 = append(c.l2, l2req{})
	c.l2Timer = append(c.l2Timer, c.eng.NewTimer(func() { c.issueL2(s) }))
	return s
}

// issueL2 fires when the L2 lookup completes: the slot's request moves
// to its memory controller and the slot is immediately recyclable (the
// in-memory phase is tracked by the controller's arena, not the core).
func (c *Core) issueL2(s int32) {
	r := c.l2[s]
	c.l2Free = append(c.l2Free, s)
	c.ctls[r.ctl].Access(c.ID, int(r.bank), r.row, r.wb)
}

// Config assembles a core.
type Config struct {
	ID          int
	App         workload.App
	Engine      *engine.Engine
	Controllers []*memsim.Controller
	// AccessProb[i] is the probability of using Controllers[i]; nil
	// means uniform.
	AccessProb []float64
	FreqMax    float64 // GHz
	OoO        bool
	Seed       int64
}

// New builds a core; it does not start executing until Start is called.
func New(cfg Config) (*Core, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("cpusim: nil engine")
	}
	if len(cfg.Controllers) == 0 {
		return nil, fmt.Errorf("cpusim: core %d has no memory controllers", cfg.ID)
	}
	if cfg.FreqMax <= 0 {
		return nil, fmt.Errorf("cpusim: non-positive max frequency")
	}
	if cfg.App.MPKI <= 0 {
		return nil, fmt.Errorf("cpusim: app %q has non-positive MPKI", cfg.App.Name)
	}
	probs := cfg.AccessProb
	if probs == nil {
		probs = make([]float64, len(cfg.Controllers))
		for i := range probs {
			probs[i] = 1 / float64(len(cfg.Controllers))
		}
	}
	if len(probs) != len(cfg.Controllers) {
		return nil, fmt.Errorf("cpusim: %d access probabilities for %d controllers", len(probs), len(cfg.Controllers))
	}
	cum := make([]float64, len(probs))
	s := 0.0
	for i, p := range probs {
		if p < 0 {
			return nil, fmt.Errorf("cpusim: negative access probability")
		}
		s += p
		cum[i] = s
	}
	if s <= 0 {
		return nil, fmt.Errorf("cpusim: access probabilities sum to zero")
	}
	for i := range cum {
		cum[i] /= s
	}
	c := &Core{
		ID:      cfg.ID,
		App:     cfg.App,
		eng:     cfg.Engine,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ (int64(cfg.ID)+1)*0x5851F42D4C957F2D)),
		ctls:    cfg.Controllers,
		cumProb: cum,
		freq:    cfg.FreqMax,
		freqMax: cfg.FreqMax,
		ooo:     cfg.OoO,
		ipaMult: 1,
		wbProb:  cfg.App.WritebackProb(),
	}
	c.ipaEff = c.effIPA()
	c.maxOut = c.computeMaxOut()
	c.burstTimer = c.eng.NewTimer(c.fireBurst)
	for _, ctl := range c.ctls {
		ctl.RegisterDemand(c.ID, c.onResponse)
	}
	return c, nil
}

// computeMaxOut derives the outstanding-miss bound: 1 for in-order; for
// idealized OoO, the number of misses that fit in the instruction window
// (dependencies ignored), at least 1.
func (c *Core) computeMaxOut() int {
	if !c.ooo {
		return 1
	}
	ipa := c.effIPA()
	k := int(OoOWindow / ipa)
	if k < 1 {
		k = 1
	}
	return k
}

// effIPA is the current mean instructions per memory access.
func (c *Core) effIPA() float64 {
	ipa := c.App.InstrPerMiss() / c.ipaMult // higher intensity → fewer instr per miss
	if ipa < 1 {
		ipa = 1
	}
	return ipa
}

// Start begins execution. Must be called once.
func (c *Core) Start() {
	if c.running {
		return
	}
	c.running = true
	c.scheduleBurst()
}

// Freq returns the current core frequency (GHz).
func (c *Core) Freq() float64 { return c.freq }

// SetFreq applies a DVFS transition. A change stalls the core for
// TransitionStallNs before the next compute burst (the core does not
// execute instructions during its own transition, §III-C).
func (c *Core) SetFreq(ghz float64) {
	if ghz <= 0 || ghz == c.freq {
		return
	}
	c.freq = ghz
	c.extraStall += TransitionStallNs
}

// SetPhase updates the application's memory-intensity multiplier for a
// new epoch and re-derives the OoO outstanding bound.
func (c *Core) SetPhase(mult float64) {
	if mult <= 0 {
		mult = 1
	}
	c.ipaMult = mult
	c.ipaEff = c.effIPA()
	c.maxOut = c.computeMaxOut()
}

// Counters returns a snapshot of the monotone counters.
func (c *Core) Counters() Counters { return c.ctr }

// scheduleBurst draws the next compute burst and arms the burst timer
// for its retirement. The core has at most one burst in flight, so a
// single reusable timer (plus the pending instruction count) replaces a
// per-burst closure.
func (c *Core) scheduleBurst() {
	ipa := c.ipaEff
	// Exponential burst length (closed-network think time), ≥ 1 instr.
	instr := c.rng.ExpFloat64() * ipa
	if instr < 1 {
		instr = 1
	}
	exec := instr * c.App.ExecCPI / c.freq
	stall := c.extraStall
	c.extraStall = 0
	c.ctr.BusyNs += exec
	c.ctr.StallNs += stall
	c.pendingInstr = instr
	c.burstTimer.Reset(exec + stall)
}

// fireBurst is the burst timer's callback.
func (c *Core) fireBurst() { c.burstDone(c.pendingInstr) }

// burstDone retires the burst's instructions and issues the LLC miss
// (plus a probabilistic writeback) after the L2 lookup time.
func (c *Core) burstDone(instr float64) {
	c.ctr.Instructions += instr
	c.ctr.Misses++
	c.outstanding++

	ctl, bank, row := c.nextAddress()
	start := c.eng.Now()
	s := c.l2Slot()
	c.l2[s] = l2req{ctl: int32(ctl), bank: int32(bank), row: row}
	c.l2Timer[s].Reset(L2HitTimeNs) // L2 lookup before the miss goes to memory

	if c.rng.Float64() < c.wbProb {
		c.ctr.Writebacks++
		wbCtl, wbBank, wbRow := c.nextAddress()
		w := c.l2Slot()
		c.l2[w] = l2req{ctl: int32(wbCtl), bank: int32(wbBank), row: wbRow, wb: true}
		c.l2Timer[w].Reset(L2HitTimeNs)
	}

	if c.outstanding >= c.maxOut {
		// In-order cores always stall here; OoO cores only when the
		// window is full. Stall time is accounted when the response
		// arrives.
		c.stalled = true
		c.stallBegan = start
		return
	}
	c.scheduleBurst()
}

// onResponse handles a completed memory access.
func (c *Core) onResponse() {
	c.outstanding--
	if c.stalled {
		c.stalled = false
		c.ctr.StallNs += c.eng.Now() - c.stallBegan
		c.scheduleBurst()
	}
}

// nextAddress produces the next (controller, bank, row) triple. With
// probability RowLocality the previous address repeats (row-buffer hit
// stream); otherwise a fresh bank and row are drawn, with the controller
// drawn from the core's access distribution.
func (c *Core) nextAddress() (ctl, bank int, row int32) {
	if c.rng.Float64() < c.App.RowLocality {
		return c.lastCtl, c.lastBank, c.lastRow
	}
	u := c.rng.Float64()
	ctl = len(c.cumProb) - 1
	for i, p := range c.cumProb {
		if u <= p {
			ctl = i
			break
		}
	}
	bank = c.rng.Intn(c.ctls[ctl].Banks())
	row = int32(c.rng.Intn(rowsPerBank))
	c.lastCtl, c.lastBank, c.lastRow = ctl, bank, row
	return ctl, bank, row
}

// rowsPerBank bounds the row address space used by the synthetic access
// streams; small enough that cross-core row conflicts occur, large
// enough that distinct cores rarely alias the same row by chance.
const rowsPerBank = 4096

// Power evaluates the core's measured power (W) over a window given the
// counter delta: leakage plus activity- and duty-cycle-weighted dynamic
// power at the current voltage/frequency point.
//
// voltNorm is V/Vmax for the core's present frequency (supplied by the
// caller, which owns the DVFS ladder).
func (c *Core) Power(delta Counters, windowNs, voltNorm float64, pcfg PowerConfig) float64 {
	if windowNs <= 0 {
		return pcfg.StaticW
	}
	busy := delta.BusyNs / windowNs
	if busy > 1 {
		busy = 1
	}
	duty := busy + pcfg.GateFrac*(1-busy)
	fNorm := c.freq / c.freqMax
	return pcfg.StaticW + pcfg.DynMaxW*c.App.Activity*voltNorm*voltNorm*fNorm*duty
}

// PeakPower is the core's maximum draw for its application (activity at
// full duty, maximum frequency/voltage).
func (c *Core) PeakPower(pcfg PowerConfig) float64 {
	return pcfg.StaticW + pcfg.DynMaxW*c.App.Activity
}
