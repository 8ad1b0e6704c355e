// Package dist splits the cluster layer across the network: a
// coordinator service owns the global watt budget and the epoch
// barrier, remote agents own the member sessions, and an NDJSON wire
// protocol carries announces, grant pushes, draw/slack/throttle reports
// and heartbeats between them. Every epoch runs through
// cluster.EpochCore — the exact core the in-process Coordinator
// drives — so when no faults fire the distributed grant stream is
// byte-identical to the local one.
//
// The barrier is failure-aware: members that miss the straggler
// deadline are evicted (their floor returns to the water-fill pool the
// next epoch, with a typed pressure event in the stream) and readmitted
// at a later epoch boundary when their agent recovers — including a
// full agent restart, which replays the journaled grant sequence
// through a rebuilt session to rejoin bit-identically at the current
// boundary.
//
// Transports are pluggable: SimNet is a single-threaded virtual-time
// loopback with seeded fault injection (drop, duplication, delay,
// mid-epoch restart) for deterministic robustness tests; the HTTP
// transport in http.go carries the same messages between fastcapd
// daemons.
package dist

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/runner"
)

// MaxMsgBytes bounds one control message (announce, grant, report…).
// Result messages carry a member's full runner.Result — per-epoch
// records included, so the coordinator's finalized results match an
// in-process run byte for byte — and get the larger MaxResultBytes.
// Both are hard caps: allocation during decode is bounded by them.
const (
	MaxMsgBytes    = 1 << 16
	MaxResultBytes = 16 << 20
)

// maxIDLen bounds member and agent identifiers on the wire.
const maxIDLen = 256

// ErrBadMessage reports a wire message that failed to decode or
// validate — truncated, oversized, unknown-typed, non-finite-valued or
// otherwise hostile input. Always typed, never a panic: the decoder
// fronts an unauthenticated surface.
var ErrBadMessage = errors.New("dist: malformed message")

// Type discriminates wire messages.
type Type string

const (
	// TypeAnnounce (agent → coordinator) offers a member for admission
	// or readmission: arbitration parameters plus how many epochs the
	// member has already executed (non-zero after a restart recovery).
	TypeAnnounce Type = "announce"
	// TypeWelcome (coordinator → agent) admits an announced member at
	// the named epoch boundary.
	TypeWelcome Type = "welcome"
	// TypeGrant (coordinator → agent) pushes one member's budget for
	// cluster epoch Epoch. The agent applies it, steps the member one
	// control epoch, and reports.
	TypeGrant Type = "grant"
	// TypeReport (agent → coordinator) returns one member's completed
	// epoch: measured draw, throttle fraction, instructions, done flag.
	TypeReport Type = "report"
	// TypeResult (agent → coordinator) carries a finished member's
	// final aggregate.
	TypeResult Type = "result"
	// TypeEvict (coordinator → agent) notifies that a member missed the
	// straggler deadline for epoch Epoch and left the arbitration pool;
	// the agent re-announces with backoff to be readmitted.
	TypeEvict Type = "evict"
	// TypeDetach (agent → coordinator) withdraws a member permanently.
	TypeDetach Type = "detach"
	// TypeHeartbeat (either direction) keeps the peer's liveness view
	// fresh when no epoch traffic is pending. Carries no epoch data and
	// is ignored by golden comparators.
	TypeHeartbeat Type = "heartbeat"
	// TypeError (coordinator → agent) reports a refused operation (for
	// example a duplicate member id from a different agent).
	TypeError Type = "error"
)

// Msg is one coordinator↔agent wire message — a flat union of every
// message type, NDJSON-framed (one JSON object per line). Unknown
// fields and values outside each type's bounds are rejected typed by
// DecodeMsg.
type Msg struct {
	Type Type `json:"type"`
	// Member names the subject member; Agent the sending (or target)
	// agent daemon.
	Member string `json:"member,omitempty"`
	Agent  string `json:"agent,omitempty"`
	// Epoch is the cluster epoch the message belongs to: the barrier a
	// grant opens, a report answers, an eviction closes.
	Epoch int `json:"epoch,omitempty"`

	// Announce parameters (see cluster.Member).
	PeakW       float64 `json:"peak_w,omitempty"`
	Weight      float64 `json:"weight,omitempty"`
	FloorFrac   float64 `json:"floor_frac,omitempty"`
	TotalEpochs int     `json:"total_epochs,omitempty"`
	// DoneEpochs is how many member-local epochs the agent has already
	// executed — non-zero when a restarted agent replayed its journal
	// and rejoins mid-run.
	DoneEpochs int `json:"done_epochs,omitempty"`
	// TargetBIPS declares the member's optional throughput SLO
	// (giga-instructions per second; 0 = no contract) and EpochNs its
	// control-epoch length — the BIPS denominator, required alongside a
	// target so the coordinator computes rates with the member's own
	// epoch geometry.
	TargetBIPS float64 `json:"target_bips,omitempty"`
	EpochNs    float64 `json:"epoch_ns,omitempty"`

	// Grant payload.
	GrantW float64 `json:"grant_w,omitempty"`

	// Report payload. MemberEpoch is the member-local epoch index just
	// executed (lags the cluster epoch for late joiners).
	MemberEpoch  int     `json:"member_epoch,omitempty"`
	PowerW       float64 `json:"power_w,omitempty"`
	ThrottleFrac float64 `json:"throttle_frac,omitempty"`
	Instr        float64 `json:"instr,omitempty"`
	Done         bool    `json:"done,omitempty"`

	// Result payload.
	Result *runner.Result `json:"result,omitempty"`

	// Error payload.
	Err string `json:"err,omitempty"`
}

// EncodeMsg serializes m to its one-line wire form (no trailing
// newline).
func EncodeMsg(m Msg) ([]byte, error) {
	// Room for a control frame (a report is ~150 bytes) in one allocation.
	return AppendMsg(make([]byte, 0, 256), m)
}

// DecodeMsg strictly decodes and validates one wire message: oversized,
// truncated, unknown-field, trailing-garbage, unknown-type and
// out-of-bounds input all fail with ErrBadMessage. It never panics and
// allocates at most in proportion to the (bounded) input.
//
// Grant, report and result frames in the shape AppendMsg writes are
// read by a single-pass decoder (decodeCanonical). That fast path may
// only decline, never reject: whatever it does not recognise goes to
// encoding/json with unknown fields disallowed (decodeStrict), which
// alone decides accept or reject, so no input changes verdict or
// decoded value by which path read it. The size and Validate checks
// after either path are the same code.
func DecodeMsg(data []byte) (Msg, error) {
	if len(data) > MaxResultBytes {
		return Msg{}, fmt.Errorf("%w: %d bytes above the %d-byte limit", ErrBadMessage, len(data), MaxResultBytes)
	}
	m, ok := decodeCanonical(data)
	if !ok {
		var err error
		if m, err = decodeStrict(data); err != nil {
			return Msg{}, err
		}
	}
	if m.Type != TypeResult && len(data) > MaxMsgBytes {
		return Msg{}, fmt.Errorf("%w: %d-byte %s message above the %d-byte limit", ErrBadMessage, len(data), m.Type, MaxMsgBytes)
	}
	if err := m.Validate(); err != nil {
		return Msg{}, err
	}
	return m, nil
}

// finiteNonNeg reports a usable non-negative float.
func finiteNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// Validate checks the message against its type's bounds. Violations
// wrap ErrBadMessage.
func (m Msg) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadMessage, fmt.Sprintf(format, args...))
	}
	if len(m.Member) > maxIDLen || len(m.Agent) > maxIDLen {
		return fail("identifier above %d bytes", maxIDLen)
	}
	if m.Epoch < 0 {
		return fail("%s epoch %d, want >= 0", m.Type, m.Epoch)
	}
	needMember := func() error {
		if m.Member == "" {
			return fail("%s without a member id", m.Type)
		}
		return nil
	}
	switch m.Type {
	case TypeAnnounce:
		if err := needMember(); err != nil {
			return err
		}
		if !finiteNonNeg(m.PeakW) || m.PeakW == 0 {
			return fail("announce peak %g W, want positive and finite", m.PeakW)
		}
		if !finiteNonNeg(m.Weight) {
			return fail("announce weight %g, want finite and >= 0", m.Weight)
		}
		if !finiteNonNeg(m.FloorFrac) || m.FloorFrac > 1 {
			return fail("announce floor fraction %g outside [0, 1]", m.FloorFrac)
		}
		if m.TotalEpochs < 1 || m.TotalEpochs > 1_000_000_000 {
			return fail("announce total epochs %d outside [1, 1e9]", m.TotalEpochs)
		}
		if m.DoneEpochs < 0 || m.DoneEpochs > m.TotalEpochs {
			return fail("announce done epochs %d outside [0, %d]", m.DoneEpochs, m.TotalEpochs)
		}
		if !finiteNonNeg(m.TargetBIPS) {
			return fail("announce target %g BIPS, want finite and >= 0", m.TargetBIPS)
		}
		if !finiteNonNeg(m.EpochNs) {
			return fail("announce epoch length %g ns, want finite and >= 0", m.EpochNs)
		}
		if m.TargetBIPS > 0 && m.EpochNs == 0 {
			return fail("announce declares a %g BIPS target without an epoch length", m.TargetBIPS)
		}
	case TypeWelcome, TypeEvict, TypeDetach:
		if err := needMember(); err != nil {
			return err
		}
	case TypeGrant:
		if err := needMember(); err != nil {
			return err
		}
		if !finiteNonNeg(m.GrantW) || m.GrantW == 0 {
			return fail("grant %g W, want positive and finite", m.GrantW)
		}
	case TypeReport:
		if err := needMember(); err != nil {
			return err
		}
		if m.MemberEpoch < 0 {
			return fail("report member epoch %d, want >= 0", m.MemberEpoch)
		}
		if !finiteNonNeg(m.PowerW) {
			return fail("report power %g W, want finite and >= 0", m.PowerW)
		}
		if !finiteNonNeg(m.ThrottleFrac) || m.ThrottleFrac > 1 {
			return fail("report throttle fraction %g outside [0, 1]", m.ThrottleFrac)
		}
		if !finiteNonNeg(m.Instr) {
			return fail("report instructions %g, want finite and >= 0", m.Instr)
		}
	case TypeResult:
		if err := needMember(); err != nil {
			return err
		}
		if m.Result == nil {
			return fail("result message without a result")
		}
		bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
		if bad(m.Result.PeakW) || bad(m.Result.BudgetW) || bad(m.Result.TotalTimeNs) {
			return fail("result with non-finite aggregate")
		}
		for _, s := range [][]float64{m.Result.TotalInstr, m.Result.NsPerInstr} {
			for _, v := range s {
				if bad(v) {
					return fail("result with non-finite per-core aggregate")
				}
			}
		}
	case TypeHeartbeat:
		// Liveness only; either id (or none) is fine.
	case TypeError:
		if m.Err == "" {
			return fail("error message without a cause")
		}
	default:
		return fail("unknown message type %q", m.Type)
	}
	return nil
}
