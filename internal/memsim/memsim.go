// Package memsim is the event-driven DDR3 memory-subsystem model the
// FastCap paper evaluates against (§III-A, Fig. 1, Table II): per-
// controller banks with open-row management, a common FCFS data bus, and
// the *transfer blocking* property — after a bank finishes an access it
// stays blocked until the retrieved line has crossed the bus, so queueing
// at the bus back-pressures the banks exactly as in the paper's closed
// queuing network.
//
// The memory bus (and DIMM clock) is frequency-scaled: a 64-byte line
// occupies the bus for BusCycles/f_bus nanoseconds. DRAM core timing
// (tRCD/tRP/tCL) is in nanoseconds and does not scale, matching the
// MemScale-style mechanism the paper adopts where bus/DIMM frequency
// scales but cell timing is fixed.
//
// The package also measures the counters FastCap consumes (Q, U, s_m —
// paper Eq. 1 and §III-C) and activity-based memory power.
//
// Per-request state lives in a flat arena owned by the controller: a
// request is an int32 slot into a dense array of compact records, and
// the bank/bus FIFOs are rings of slots. The epoch inner loop therefore
// walks dense arrays instead of chasing per-request heap objects. Cores
// on the hot path use Access + RegisterDemand; the boxed Submit(*Request)
// entry point copies into the arena and exists for tests and small tools.
package memsim

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/qmodel"
)

// Timing carries the DDR3 device timing of the paper's Table II.
type Timing struct {
	TRCD float64 // row-to-column delay, ns
	TRP  float64 // row precharge, ns
	TCL  float64 // CAS latency, ns
	// BusCycles is the number of bus clock cycles one 64-byte line
	// occupies on the data bus (8 beats at DDR = 4 clocks).
	BusCycles float64
}

// DDR3 returns the Table II timing: tRCD = tRP = tCL = 15 ns, 4 bus
// clocks per cache-line transfer.
func DDR3() Timing { return Timing{TRCD: 15, TRP: 15, TCL: 15, BusCycles: 4} }

// PowerConfig calibrates the activity-based memory power model. All
// dynamic terms scale linearly with the normalized bus frequency, which
// is what makes the paper's fitted exponent β ≈ 1.
type PowerConfig struct {
	StaticW   float64 // refresh + standby floor, frequency-independent
	ClockW    float64 // PLL/controller/DIMM clock tree at full frequency
	TransferW float64 // incremental power at 100% bus utilization, full frequency
}

// DefaultPower calibrates a 4-channel DDR3 subsystem to the paper's
// breakdown: ~36 W peak (30% of the 120 W 16-core system), 10 W static.
func DefaultPower() PowerConfig {
	return PowerConfig{StaticW: 10, ClockW: 6, TransferW: 20}
}

// Request is one memory transaction: a demand read (LLC miss) or a
// writeback. Done, if non-nil, fires when the bus transfer completes —
// i.e. when the requesting core receives its data. Submit copies the
// request into the controller's arena; the struct itself is not retained.
type Request struct {
	Core      int
	Bank      int
	Row       int32
	Writeback bool
	Done      func()
}

// bank states; a bank is blocked from serving its queue while its
// finished request waits for (or occupies) the bus.
const (
	bankIdle = uint8(iota)
	bankServing
	bankBlocked
)

// bank is one bank's service state plus its request queue. The fields
// touched together on the service path sit in one compact record;
// svcTimer fires serviceDone for this bank and is created once at
// controller construction so bank service scheduling is allocation-free.
type bank struct {
	queue    ring
	openRow  int32
	hasOpen  bool
	state    uint8
	svcTimer *engine.Timer
}

// req is the arena record of one in-flight request.
type req struct {
	core   int32
	bank   int32
	row    int32
	wb     bool
	arrive float64 // Submit time; feeds the response-time counters
}

// ring is a FIFO of arena slots over a power-of-two backing array; the
// head cursor wraps via masking, so steady-state push/pop never moves
// or re-allocates memory.
type ring struct {
	buf  []int32
	head uint32
	n    uint32
}

func (q *ring) push(s int32) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&uint32(len(q.buf)-1)] = s
	q.n++
}

func (q *ring) grow() {
	sz := len(q.buf) * 2
	if sz < 8 {
		sz = 8
	}
	nb := make([]int32, sz)
	mask := uint32(len(q.buf) - 1)
	for i := uint32(0); i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&mask]
	}
	q.buf, q.head = nb, 0
}

func (q *ring) len() int { return int(q.n) }

func (q *ring) front() int32 { return q.buf[q.head&uint32(len(q.buf)-1)] }

func (q *ring) pop() int32 {
	s := q.buf[q.head&uint32(len(q.buf)-1)]
	q.head++
	q.n--
	return s
}

// Counters accumulate monotonically; callers snapshot and diff to get
// per-window statistics.
type Counters struct {
	Arrivals   int64   // requests enqueued at banks
	SumQ       float64 // Σ bank queue length at arrival (incl. arriving)
	Departures int64   // requests finishing bank service
	SumU       float64 // Σ bus backlog at departure (incl. departing)
	SvcSum     float64 // Σ bank service times, ns
	SvcCount   int64
	Reads      int64
	Writebacks int64
	RowHits    int64
	BankBusyNs float64 // Σ over banks of service time
	BusBusyNs  float64 // bus transfer time
	RespSumNs  float64 // Σ request response times (Submit → transfer done)
	RespCount  int64
}

// Sub returns c - prev, the window delta.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Arrivals:   c.Arrivals - prev.Arrivals,
		SumQ:       c.SumQ - prev.SumQ,
		Departures: c.Departures - prev.Departures,
		SumU:       c.SumU - prev.SumU,
		SvcSum:     c.SvcSum - prev.SvcSum,
		SvcCount:   c.SvcCount - prev.SvcCount,
		Reads:      c.Reads - prev.Reads,
		Writebacks: c.Writebacks - prev.Writebacks,
		RowHits:    c.RowHits - prev.RowHits,
		BankBusyNs: c.BankBusyNs - prev.BankBusyNs,
		BusBusyNs:  c.BusBusyNs - prev.BusBusyNs,
		RespSumNs:  c.RespSumNs - prev.RespSumNs,
		RespCount:  c.RespCount - prev.RespCount,
	}
}

// MemStats converts a window delta into the Eq. 1 inputs, falling back
// to light-load defaults (Q = U = 1, s_m = tCL) when the window saw no
// traffic.
func (c Counters) MemStats(t Timing) qmodel.MemStats {
	s := qmodel.MemStats{Q: 1, U: 1, Sm: t.TCL}
	if c.Arrivals > 0 {
		s.Q = c.SumQ / float64(c.Arrivals)
	}
	if c.Departures > 0 {
		s.U = c.SumU / float64(c.Departures)
	}
	if c.SvcCount > 0 {
		s.Sm = c.SvcSum / float64(c.SvcCount)
	}
	return s.Clamp(t.TCL)
}

// MeasuredResponseNs is the window's true mean response time (Submit to
// completed bus transfer), or 0 for an idle window. Validation
// experiments compare it against the Eq. 1 approximation.
func (c Counters) MeasuredResponseNs() float64 {
	if c.RespCount == 0 {
		return 0
	}
	return c.RespSumNs / float64(c.RespCount)
}

// Controller is one memory controller: a set of banks sharing one data
// bus, as in the paper's Fig. 1.
type Controller struct {
	eng    *engine.Engine
	timing Timing
	power  PowerConfig

	busFreq    float64 // GHz
	busFreqMax float64
	xferNs     float64 // BusCycles / busFreq, cached per retarget

	// banks[i] is one compact record per bank: fields touched together
	// on the service path share a cache line.
	banks []bank

	busQ    ring
	busBusy bool
	// busCur is the arena slot occupying the bus (-1 when idle);
	// busTimer fires its transfer completion (one transfer at a time,
	// one reusable timer).
	busCur   int32
	busTimer *engine.Timer

	// Request arena: a request is an int32 slot into rq, recycled
	// through rFree when its bus transfer completes. One 24-byte record
	// per request keeps the completion path to a single cache line;
	// rDone is split out because only the boxed Submit path touches it.
	rq    []req
	rDone []func() // boxed-path callback; nil on the Access path
	rFree []int32

	// demandFn[core] is called when a demand read for that core leaves
	// the bus (Access path; writebacks complete silently).
	demandFn []func()

	ctr Counters
}

// NewController builds a controller with nBanks banks, bus frequency
// initially at busFreqMax (GHz).
func NewController(eng *engine.Engine, nBanks int, timing Timing, pcfg PowerConfig, busFreqMax float64) (*Controller, error) {
	if nBanks <= 0 {
		return nil, fmt.Errorf("memsim: need at least one bank, got %d", nBanks)
	}
	if busFreqMax <= 0 {
		return nil, fmt.Errorf("memsim: non-positive bus frequency %g", busFreqMax)
	}
	c := &Controller{
		eng:        eng,
		timing:     timing,
		power:      pcfg,
		busFreq:    busFreqMax,
		busFreqMax: busFreqMax,
		xferNs:     timing.BusCycles / busFreqMax,
		banks:      make([]bank, nBanks),
		busCur:     -1,
	}
	for i := range c.banks {
		bi := i
		c.banks[i].svcTimer = eng.NewTimer(func() { c.serviceDone(bi) })
	}
	c.busTimer = eng.NewTimer(c.busTransferDone)
	return c, nil
}

// Banks returns the number of banks behind this controller.
func (c *Controller) Banks() int { return len(c.banks) }

// BusFreq returns the current bus frequency in GHz.
func (c *Controller) BusFreq() float64 { return c.busFreq }

// SetBusFreq retargets the bus (and DIMM) clock. The transfer time of
// requests already on the bus is unaffected; queued requests see the new
// rate. The paper's PLL/DLL re-sync halt is tens of microseconds per
// multi-millisecond epoch and is accounted as negligible (§III-C).
func (c *Controller) SetBusFreq(ghz float64) {
	if ghz <= 0 {
		return
	}
	c.busFreq = ghz
	c.xferNs = c.timing.BusCycles / ghz
}

// TransferTime returns the current per-line bus occupancy s_b in ns.
func (c *Controller) TransferTime() float64 { return c.xferNs }

// MinTransferTime returns s̄_b, the transfer time at maximum frequency.
func (c *Controller) MinTransferTime() float64 { return c.timing.BusCycles / c.busFreqMax }

// Counters returns a snapshot of the monotone counters.
func (c *Controller) Counters() Counters { return c.ctr }

// RegisterDemand installs the completion callback for a core's demand
// reads submitted through Access. One callback per core, installed once
// at wiring time — the per-request Done closure of the boxed path is
// what this replaces on the hot path.
func (c *Controller) RegisterDemand(core int, fn func()) {
	for len(c.demandFn) <= core {
		c.demandFn = append(c.demandFn, nil)
	}
	c.demandFn[core] = fn
}

// alloc takes a free arena slot, growing the arena when the free list
// is empty.
func (c *Controller) alloc() int32 {
	if k := len(c.rFree) - 1; k >= 0 {
		s := c.rFree[k]
		c.rFree = c.rFree[:k]
		return s
	}
	s := int32(len(c.rq))
	c.rq = append(c.rq, req{})
	c.rDone = append(c.rDone, nil)
	return s
}

// Access enqueues one transaction at its bank without boxing: the hot
// path for cores. bank is reduced modulo the bank count so callers can
// use free-running bank cursors. Demand reads (writeback=false) notify
// the core's RegisterDemand callback when the transfer completes.
func (c *Controller) Access(core, bank int, row int32, writeback bool) {
	c.submit(core, bank, row, writeback)
}

// submit is Access returning the arena slot, so the boxed path can
// attach its callback.
func (c *Controller) submit(core, bank int, row int32, writeback bool) int32 {
	if uint(bank) >= uint(len(c.banks)) { // cores pass in-range banks; keep the div off the hot path
		bank %= len(c.banks)
		if bank < 0 {
			bank += len(c.banks)
		}
	}
	s := c.alloc()
	c.rq[s] = req{core: int32(core), bank: int32(bank), row: row, wb: writeback, arrive: c.eng.Now()}
	b := &c.banks[bank]
	b.queue.push(s)
	c.ctr.Arrivals++
	c.ctr.SumQ += float64(b.queue.len()) // includes the arriving request
	if writeback {
		c.ctr.Writebacks++
	} else {
		c.ctr.Reads++
	}
	if b.state == bankIdle {
		c.startService(bank)
	}
	return s
}

// Submit enqueues a boxed request, copying it into the arena. Request
// fields are read synchronously; the struct is not retained. Nothing
// fires synchronously from submit (service completes through a timer),
// so attaching Done after the fact is race-free.
func (c *Controller) Submit(r *Request) {
	s := c.submit(r.Core, r.Bank, r.Row, r.Writeback)
	c.rDone[s] = r.Done
}

// startService begins the bank access for the head of the bank queue.
func (c *Controller) startService(bi int) {
	b := &c.banks[bi]
	b.state = bankServing
	row := c.rq[b.queue.front()].row
	var svc float64
	switch {
	case b.hasOpen && b.openRow == row:
		svc = c.timing.TCL // row-buffer hit
		c.ctr.RowHits++
	case b.hasOpen:
		svc = c.timing.TRP + c.timing.TRCD + c.timing.TCL // conflict
	default:
		svc = c.timing.TRCD + c.timing.TCL // empty row buffer
	}
	b.openRow, b.hasOpen = row, true
	c.ctr.SvcSum += svc
	c.ctr.SvcCount++
	c.ctr.BankBusyNs += svc
	b.svcTimer.Reset(svc)
}

// serviceDone moves the finished request to the bus queue; the bank
// stays blocked until the transfer completes (transfer blocking).
func (c *Controller) serviceDone(bi int) {
	b := &c.banks[bi]
	b.state = bankBlocked
	s := b.queue.front()
	c.ctr.Departures++
	// Bus backlog seen by the departing request: waiters ahead of it,
	// any transfer in flight, and itself.
	u := float64(c.busQ.len()) + 1
	if c.busBusy {
		u++
	}
	c.ctr.SumU += u
	c.busQ.push(s)
	c.tryStartBus()
}

func (c *Controller) tryStartBus() {
	if c.busBusy || c.busQ.len() == 0 {
		return
	}
	s := c.busQ.pop()
	c.busBusy = true
	c.busCur = s
	sb := c.TransferTime()
	c.ctr.BusBusyNs += sb
	c.busTimer.Reset(sb)
}

// busTransferDone releases the bus, unblocks the request's bank,
// recycles the arena slot, and notifies the requesting core.
func (c *Controller) busTransferDone() {
	s := c.busCur
	c.busCur = -1
	c.busBusy = false
	r := c.rq[s]
	c.ctr.RespSumNs += c.eng.Now() - r.arrive
	c.ctr.RespCount++
	bi := int(r.bank)
	b := &c.banks[bi]
	b.queue.pop()
	b.state = bankIdle
	if b.queue.len() > 0 {
		c.startService(bi)
	}
	// Free the slot before notifying: the callback may submit again and
	// immediately reuse it; all fields were read out above.
	done := c.rDone[s]
	core, wb := int(r.core), r.wb
	c.rFree = append(c.rFree, s)
	if done != nil {
		c.rDone[s] = nil // demand-path slots stay nil: no write barrier there
		done()
	} else if !wb && core >= 0 && core < len(c.demandFn) {
		if fn := c.demandFn[core]; fn != nil {
			fn()
		}
	}
	c.tryStartBus()
}

// Power evaluates the measured memory power (W) over a window of length
// windowNs given the window's counter delta: static floor plus
// frequency-proportional clock-tree and transfer-activity terms.
func (c *Controller) Power(delta Counters, windowNs float64) float64 {
	if windowNs <= 0 {
		return c.power.StaticW
	}
	fNorm := c.busFreq / c.busFreqMax
	busUtil := delta.BusBusyNs / windowNs
	if busUtil > 1 {
		busUtil = 1
	}
	return c.power.StaticW + fNorm*(c.power.ClockW+c.power.TransferW*busUtil)
}

// PeakPower is the controller's maximum power draw: full frequency,
// saturated bus.
func (c *Controller) PeakPower() float64 {
	return c.power.StaticW + c.power.ClockW + c.power.TransferW
}

// QueuedRequests reports the total number of requests resident in the
// controller. A request stays in its bank queue from Submit until its
// bus transfer completes (the bus queue holds aliases, not extra
// requests), so the bank queues alone are the full population; used by
// tests to check request conservation.
func (c *Controller) QueuedRequests() int {
	n := 0
	for i := range c.banks {
		n += c.banks[i].queue.len()
	}
	return n
}
