// Package qmodel implements the closed-network queuing abstractions at
// the heart of FastCap (paper §III-A): the memory response-time
// approximation R(s_b) ≈ Q·(s_m + U·s_b) (Eq. 1) and the weighted
// multi-controller generalization used in §IV-B.
//
// It also provides an exact single-class Mean Value Analysis solver for
// the corresponding closed queuing network *without* transfer blocking,
// used by tests as an analytic cross-check on the event-driven simulator.
//
// Times are in nanoseconds throughout.
package qmodel

import "math"

// MemStats captures the per-controller queue statistics FastCap reads
// from the memory controller's performance counters each epoch:
//
//   - Q:  expected number of requests at a bank when a new request
//     arrives, including the arriving one.
//   - U:  expected number of requests waiting for the data bus when a
//     served request is ready to leave, including the departing one.
//   - Sm: average bank service (access) time, ns.
type MemStats struct {
	Q  float64
	U  float64
	Sm float64
}

// Response evaluates the paper's Eq. 1 approximation of mean memory
// response time for a bus transfer time sb (ns): R = Q·(s_m + U·s_b).
func (m MemStats) Response(sb float64) float64 {
	return m.Q * (m.Sm + m.U*sb)
}

// Valid reports whether the statistics are physical: Q and U are counts
// at least 1 (they include the tagged request itself) and Sm is positive.
// Idle epochs can legitimately produce Q, U slightly below 1 when
// measured as time averages, so callers typically Clamp first.
func (m MemStats) Valid() bool {
	return m.Q >= 1 && m.U >= 1 && m.Sm > 0 &&
		!math.IsNaN(m.Q) && !math.IsNaN(m.U) && !math.IsNaN(m.Sm)
}

// Clamp returns a copy with Q and U raised to at least 1 (the tagged
// request always counts itself) and Sm to at least smFloor.
func (m MemStats) Clamp(smFloor float64) MemStats {
	c := m
	if !(c.Q >= 1) { // catches NaN too
		c.Q = 1
	}
	if !(c.U >= 1) {
		c.U = 1
	}
	if !(c.Sm >= smFloor) {
		c.Sm = smFloor
	}
	return c
}

// Multi models multiple memory controllers running at a common bus
// frequency but with independent queue statistics, as in §IV-B
// ("Multiple memory controllers"). Access[i][k] is the probability that
// core i's requests go to controller k; rows must sum to 1.
type Multi struct {
	Stats  []MemStats
	Access [][]float64
}

// CoreResponse returns the response time experienced by core i at bus
// transfer time sb: the access-probability-weighted average of the
// per-controller Eq. 1 responses.
func (mc *Multi) CoreResponse(core int, sb float64) float64 {
	row := mc.Access[core]
	r := 0.0
	for k, s := range mc.Stats {
		r += row[k] * s.Response(sb)
	}
	return r
}

// MVA solves a closed single-class queuing network with one delay
// station (aggregate think time Z), nBanks identical FCFS bank stations
// with service time sm, and a single FCFS bus station with service time
// sb, populated by n customers (cores). It returns the mean memory
// response time (time from arrival at a bank to completed bus transfer)
// and the system throughput (requests/ns).
//
// This is exact Mean Value Analysis for the product-form version of the
// network (no transfer blocking); the paper's Eq. 1 and the simulator
// both include blocking, so MVA serves as an analytic lower-bound
// cross-check in tests.
func MVA(n int, z float64, nBanks int, sm, sb float64) (resp, throughput float64) {
	if n <= 0 || nBanks <= 0 {
		return 0, 0
	}
	qBank := make([]float64, nBanks)
	qBus := 0.0
	for k := 1; k <= n; k++ {
		// Residence time at each station with k customers.
		rBank := make([]float64, nBanks)
		sumR := 0.0
		for b := 0; b < nBanks; b++ {
			rBank[b] = sm * (1 + qBank[b])
			sumR += rBank[b] / float64(nBanks) // uniform routing
		}
		rBus := sb * (1 + qBus)
		sumR += rBus
		x := float64(k) / (z + sumR)
		for b := 0; b < nBanks; b++ {
			// Per-bank arrival rate is x/nBanks under uniform routing.
			qBank[b] = x / float64(nBanks) * rBank[b]
		}
		qBus = x * rBus
		if k == n {
			resp = sumR
			throughput = x
		}
	}
	return resp, throughput
}
