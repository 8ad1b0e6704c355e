// Package fastcap is the public API of this FastCap reproduction — an
// implementation of "FastCap: An Efficient and Fair Algorithm for Power
// Capping in Many-Core Systems" (Liu, Cox, Deng, Draper, Bianchini —
// ISPASS 2016), together with the simulated many-core platform, the
// baseline policies, and the experiment harness of the paper's
// evaluation.
//
// The heavy lifting lives in internal packages; this package re-exports
// the stable surface:
//
//   - the FastCap optimizer (Algorithm 1) and its inputs: Inputs, Solve;
//   - capping policies behind the Policy interface: NewFastCapPolicy,
//     NewCPUOnlyPolicy, NewFreqParPolicy, NewEqlPwrPolicy,
//     NewEqlFreqPolicy, NewMaxBIPSPolicy;
//   - the streaming controller: Platform, NewSession, Session.Step,
//     with the batch wrappers RunExperiment, RunExperimentPair;
//   - trace record/replay for policy dry-runs: NewRecorder,
//     NewReplayPlatform;
//   - the multi-session serving layer behind cmd/fastcapd:
//     NewSessionManager, NewServeHandler;
//   - cluster-level budget coordination (one global watt budget
//     arbitrated across many sessions): NewClusterCoordinator with the
//     static / slack-reclaiming / priority-weighted / SLO /
//     predictive arbiters;
//   - the simulated platform: DefaultSystemConfig, NewSystem;
//   - Table III workloads: Workloads, WorkloadByName;
//   - the figure-level experiment harness: NewLab.
//
// Quick start — stream a capped run one control epoch at a time:
//
//	mix, _ := fastcap.WorkloadByName("MIX3")
//	cfg := fastcap.ExperimentConfig{
//		Sim:        fastcap.DefaultSystemConfig(16),
//		Mix:        mix,
//		BudgetFrac: 0.6,
//		Epochs:     40,
//		Policy:     fastcap.NewFastCapPolicy(),
//	}
//	ses, _ := fastcap.NewSession(cfg, fastcap.WithObserver(func(e fastcap.EpochRecord) {
//		fmt.Printf("epoch %d: %.1f W under a %.1f W cap\n", e.Epoch, e.AvgPowerW, e.BudgetW)
//	}))
//	for {
//		if _, err := ses.Step(ctx); err != nil {
//			break // fastcap.ErrSessionDone after the last epoch
//		}
//	}
//	res := ses.Result()
//
// Sessions can be retargeted mid-run (SetBudgetFrac), driven by a
// per-epoch budget trace (WithBudgetTrace), cancelled via the Step
// context, and attached to any Platform — the event-driven simulator,
// a recorded trace (NewReplayPlatform), or a production adapter. The
// batch form is one call:
//
//	res, base, _ := fastcap.RunExperimentPair(cfg)
//	norm, _ := res.NormalizedPerf(base)
package fastcap

import (
	"io"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Optimizer surface (paper §III-B, Algorithm 1).
type (
	// Inputs are the FastCap optimizer inputs: think times, cache times,
	// fitted power models, queue statistics, budget.
	Inputs = core.Inputs
	// Result is the continuous optimizer solution (objective D, think
	// times, bus transfer time) before DVFS-ladder quantization.
	Result = core.Result
	// Assignment is the quantized ladder assignment.
	Assignment = core.Assignment
	// ResponseFunc evaluates the per-core memory response time R_i(s_b).
	ResponseFunc = core.ResponseFunc
)

// SbCandidatesFromLadder derives the optimizer's M candidate bus
// transfer times from a memory DVFS ladder.
func SbCandidatesFromLadder(sbBar float64, memLadder *Ladder) []float64 {
	return core.SbCandidatesFromLadder(sbBar, memLadder)
}

// DVFS ladders (paper §IV-A).
type Ladder = dvfs.Ladder

// DefaultCoreLadder returns 10 steps spanning 2.2–4.0 GHz at 0.65–1.2 V.
func DefaultCoreLadder() *Ladder { return dvfs.DefaultCoreLadder() }

// EfficiencyCoreLadder returns the little-core ladder (1.2–2.4 GHz) of
// the heterogeneous machine specs.
func EfficiencyCoreLadder() *Ladder { return dvfs.EfficiencyCoreLadder() }

// BinnedCoreLadder returns the slow-bin core ladder (2.0–3.6 GHz).
func BinnedCoreLadder() *Ladder { return dvfs.BinnedCoreLadder() }

// NamedCoreLadder resolves a ladder preset: "perf", "efficiency" or
// "binned".
func NamedCoreLadder(name string) (*Ladder, error) { return dvfs.NamedCoreLadder(name) }

// DefaultMemLadder returns 200–800 MHz in 66 MHz steps.
func DefaultMemLadder() *Ladder { return dvfs.DefaultMemLadder() }

// Heterogeneous machines: named core classes with per-class DVFS
// ladders, power curves, ExecCPI scaling, and optional explicit app
// placement. Set SystemConfig.Machine to build one; class counts must
// sum to the core count. A nil Machine is the homogeneous machine — one
// implicit class through the same per-core code, with results
// bit-identical to earlier releases.
type (
	// MachineSpec describes an asymmetric machine as named core classes.
	MachineSpec = sim.MachineSpec
	// CoreClass is one named group of identical cores.
	CoreClass = sim.CoreClass
	// MachineLayout is the per-core resolution of a machine description
	// (ladders, power calibrations, placement).
	MachineLayout = sim.MachineLayout
)

// Policies (paper §IV-B).
type (
	// Policy is one capping algorithm: Snapshot in, Decision out.
	//
	// Ownership contracts (performance-motivated):
	//   - A policy instance may keep internal scratch across Decide
	//     calls; use one instance per concurrent run. Instances must not
	//     be shared between goroutines.
	//   - The Snapshot (and its slices) passed to Decide is only valid
	//     for the duration of the call — the runner refills one buffer
	//     per epoch. Implementations that retain per-epoch data must
	//     copy it.
	Policy = policy.Policy
	// Snapshot is the per-epoch controller input. Snapshots handed to
	// Policy.Decide are reused across epochs; copy anything you keep.
	Snapshot = policy.Snapshot
	// Decision is a full per-core + memory DVFS assignment.
	Decision = policy.Decision
)

// NewFastCapPolicy returns the paper's algorithm (guarded quantization,
// binary search over memory frequencies).
func NewFastCapPolicy() Policy { return policy.NewFastCap() }

// NewCPUOnlyPolicy returns FastCap restricted to core DVFS with memory
// pinned at maximum frequency.
func NewCPUOnlyPolicy() Policy { return policy.NewCPUOnly() }

// NewFreqParPolicy returns the linear-feedback frequency-quota policy
// of Ma et al. [22].
func NewFreqParPolicy() Policy { return policy.NewFreqPar() }

// NewEqlPwrPolicy returns the equal-power-share policy of Sharkey et
// al. [16], extended with memory DVFS.
func NewEqlPwrPolicy() Policy { return policy.NewEqlPwr() }

// NewEqlFreqPolicy returns the uniform-frequency policy of Herbert and
// Marculescu [42], extended with memory DVFS.
func NewEqlFreqPolicy() Policy { return policy.NewEqlFreq() }

// NewMaxBIPSPolicy returns the exhaustive throughput-maximizing policy
// of Isci et al. [14]; it refuses core counts where O(F^N) explodes.
func NewMaxBIPSPolicy() Policy { return policy.NewMaxBIPS() }

// NewGreedyPolicy returns the heap-based greedy heuristic of Meng et
// al. [18] / Winter et al. [19]: near-MaxBIPS throughput at
// O(M·F·N·log N) cost, with the same fairness blind spot.
func NewGreedyPolicy() Policy { return policy.NewGreedy() }

// BudgetGroup caps the joint power of a set of cores (a socket or
// voltage island) — the paper's §III-B per-processor extension.
type BudgetGroup = core.BudgetGroup

// NewGroupedFastCapPolicy returns FastCap with additional per-group
// power budgets on top of the global cap.
func NewGroupedFastCapPolicy(groups []BudgetGroup) Policy {
	return policy.NewGroupedFastCap(groups)
}

// Simulated platform (paper §IV-A, Table II).
type (
	// SystemConfig describes the simulated machine.
	SystemConfig = sim.Config
	// System is an instantiated machine bound to a workload.
	//
	// The Profiles returned by RunProfile and FinishEpoch alias
	// System-owned buffers: each is valid until the next call of the
	// same method. Callers accumulating per-epoch profiles must copy
	// the slices they keep.
	System = sim.System
)

// DefaultSystemConfig mirrors the paper's evaluation platform for n
// cores (n a positive multiple of 4).
func DefaultSystemConfig(n int) SystemConfig { return sim.DefaultConfig(n) }

// NewSystem builds a simulated machine running the given workload.
func NewSystem(cfg SystemConfig, wl *Workload) (*System, error) { return sim.New(cfg, wl) }

// Workloads (paper Table III).
type (
	// WorkloadSpec is one Table III row.
	WorkloadSpec = workload.MixSpec
	// Workload is an instantiated mix: one application per core.
	Workload = workload.Workload
	// PhaseSchedule scales workload intensity at chosen epochs —
	// diurnal load shifts for churn experiments. Zero value: no shifts.
	PhaseSchedule = workload.PhaseSchedule
	// PhaseShift is one step of a PhaseSchedule.
	PhaseShift = workload.PhaseShift
)

// Workloads returns all 16 Table III mixes.
func Workloads() []WorkloadSpec { return workload.TableIII }

// WorkloadByName returns a Table III mix by name (e.g. "MEM1").
func WorkloadByName(name string) (WorkloadSpec, error) { return workload.MixByName(name) }

// InstantiateWorkload builds the per-core application instances of a
// mix for an n-core machine.
func InstantiateWorkload(spec WorkloadSpec, n int) (*Workload, error) {
	return workload.Instantiate(spec, n)
}

// PlaceWorkload builds a workload from an explicit application-per-core
// placement (the heterogeneous machines' layout; rates are standalone).
func PlaceWorkload(name string, appNames []string) (*Workload, error) {
	return workload.InstantiatePlacement(name, appNames)
}

// Experiment runner (paper §III-C epoch protocol).
type (
	// ExperimentConfig describes one capping run.
	ExperimentConfig = runner.Config
	// ExperimentResult carries per-epoch power series and per-core
	// performance.
	ExperimentResult = runner.Result
	// EpochRecord is one epoch's telemetry: powers, budget in force,
	// applied DVFS decision, per-core instruction counts, and the
	// model-validation signals.
	EpochRecord = runner.EpochRecord
)

// RunExperiment executes one run (Policy nil = all-max baseline).
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) { return runner.Run(cfg) }

// RunExperimentPair executes a policy run and its matching baseline.
func RunExperimentPair(cfg ExperimentConfig) (pol, base *ExperimentResult, err error) {
	return runner.RunPair(cfg)
}

// Streaming controller (the session API).
type (
	// Platform is the minimal machine surface the controller drives:
	// profile window, DVFS apply, epoch finish, and power/queue-stat
	// accessors. *System implements it; so do replay platforms and
	// (by design) production adapters.
	Platform = runner.Platform
	// Session runs the control loop one epoch per Step call, streaming
	// telemetry to observers and supporting mid-run budget retargeting
	// and cancellation.
	Session = runner.Session
	// SessionOption configures NewSession.
	SessionOption = runner.SessionOption
)

// Typed errors of the session API.
var (
	// ErrInvalidConfig tags configuration rejected up front by
	// NewSession/RunExperiment; test with errors.Is.
	ErrInvalidConfig = runner.ErrInvalidConfig
	// ErrSessionDone is returned by Session.Step after the last epoch:
	// normal termination, not failure.
	ErrSessionDone = runner.ErrDone
	// ErrConcurrentStep is returned by Session.Step when another Step
	// (or Result) is already in flight — the typed refusal that replaces
	// what would otherwise be a data race between two drivers.
	ErrConcurrentStep = runner.ErrConcurrentStep
)

// NewSession builds a streaming run: validate the configuration, build
// the platform (or use WithPlatform's), and start the machine. Step
// executes one epoch; Result finalizes. RunExperiment is the batch
// equivalent and produces a bit-identical ExperimentResult.
func NewSession(cfg ExperimentConfig, opts ...SessionOption) (*Session, error) {
	return runner.NewSession(cfg, opts...)
}

// WithObserver streams every completed epoch's record to fn.
func WithObserver(fn func(EpochRecord)) SessionOption { return runner.WithObserver(fn) }

// WithBudgetTrace drives the cap from a per-epoch schedule (fractions
// of peak in (0, 1]).
func WithBudgetTrace(trace func(epoch int) float64) SessionOption {
	return runner.WithBudgetTrace(trace)
}

// WithPlatform attaches the controller to a custom Platform instead of
// building a simulator from the config.
func WithPlatform(p Platform) SessionOption { return runner.WithPlatform(p) }

// WithPlatformWrap interposes a wrapper (e.g. NewRecorder) around the
// session's platform after construction, however it was built.
func WithPlatformWrap(wrap func(Platform) Platform) SessionOption {
	return runner.WithPlatformWrap(wrap)
}

// Trace record/replay (policy dry-runs without the event engine).
type (
	// Recording is a captured run: static machine characteristics plus
	// the per-epoch measurement-window stream; JSON-serializable via
	// WriteJSON/ReadJSON.
	Recording = replay.Recording
	// Recorder is a pass-through Platform capturing everything a live
	// platform produces.
	Recorder = replay.Recorder
	// ReplayPlatform plays a Recording back to the controller with no
	// simulation; replaying under the original configuration and
	// policy reproduces the run bit for bit.
	ReplayPlatform = replay.Platform
)

// NewRecorder wraps a live platform for capture; drive a session with
// WithPlatform(recorder), then take Recording().
func NewRecorder(live Platform) *Recorder { return replay.NewRecorder(live) }

// NewReplayPlatform mounts a recording for playback.
func NewReplayPlatform(rec *Recording) (*ReplayPlatform, error) { return replay.New(rec) }

// ReadRecording deserializes a Recording written with WriteJSON.
func ReadRecording(r io.Reader) (*Recording, error) { return replay.ReadJSON(r) }

// Serving layer (the fastcapd service): many concurrent sessions,
// stepped fair round-robin on a bounded scheduler pool, with NDJSON
// epoch streaming and live budget retargeting over HTTP.
type (
	// SessionManager owns concurrent capping sessions — the full
	// create / scheduled-stepping / retarget / close lifecycle — and
	// guarantees every session's stream and result are bit-identical
	// to a solo RunExperiment of the same configuration.
	SessionManager = serve.Manager
	// ServeOptions bounds the manager: scheduler pool size and the
	// resident-session admission limit.
	ServeOptions = serve.Options
	// SessionRequest is the create-session payload (POST /sessions).
	SessionRequest = serve.Request
	// SessionMachineRequest is the JSON machine spec of a session
	// request (named core classes).
	SessionMachineRequest = serve.MachineRequest
	// SessionClassRequest is one core class of a machine request.
	SessionClassRequest = serve.ClassRequest
	// SessionStatus is one session's externally visible snapshot.
	SessionStatus = serve.Status
	// SessionState is the lifecycle state machine position.
	SessionState = serve.State
)

// Typed errors of the serving layer; test with errors.Is.
var (
	// ErrSessionNotFound reports an unknown or deleted session id.
	ErrSessionNotFound = serve.ErrNotFound
	// ErrManagerDraining rejects creates after Shutdown began.
	ErrManagerDraining = serve.ErrDraining
	// ErrTooManySessions rejects creates above ServeOptions.MaxSessions.
	ErrTooManySessions = serve.ErrTooManySessions
	// ErrSessionRunning guards results/recordings of live sessions.
	ErrSessionRunning = serve.ErrNotFinished
	// ErrSessionFinished rejects operations that can no longer take
	// effect — retargeting the budget of a session that is already
	// terminal (or stepping its final epoch).
	ErrSessionFinished = serve.ErrFinished
	// ErrNoRecording reports a session created without Record.
	ErrNoRecording = serve.ErrNoRecording
)

// NewSessionManager starts a serving-layer manager and its scheduler
// pool; drain it with Shutdown.
func NewSessionManager(o ServeOptions) *SessionManager { return serve.NewManager(o) }

// NewServeHandler returns the fastcapd HTTP API over m: POST /sessions,
// GET /sessions/{id}/stream (NDJSON), POST /sessions/{id}/budget,
// GET /sessions/{id}/result, GET /sessions/{id}/recording,
// DELETE /sessions/{id}.
func NewServeHandler(m *SessionManager) http.Handler { return serve.NewHandler(m) }

// Cluster coordination: one global watt budget arbitrated across many
// sessions at epoch boundaries — the fleet-level layer above Session.
type (
	// ClusterCoordinator owns a global power budget and re-partitions
	// it across member sessions each epoch via a pluggable arbiter,
	// stepping every member in deterministic lockstep.
	ClusterCoordinator = cluster.Coordinator
	// ClusterConfig bounds a coordinator: global budget, arbiter,
	// member-step worker pool.
	ClusterConfig = cluster.Config
	// ClusterMember is one tenant: a Session plus its arbitration
	// parameters (id, priority weight, guaranteed floor).
	ClusterMember = cluster.Member
	// ClusterArbiter re-partitions the global budget each epoch: one
	// id-keyed Rebalance returning ClusterRoundStats, plus Forget(id).
	ClusterArbiter = cluster.Arbiter
	// ClusterRoundStats is what one Rebalance round reports about itself
	// (water-fill passes, prediction error); a custom arbiter with
	// nothing to report returns the zero value.
	ClusterRoundStats = cluster.RoundStats
	// ClusterObservation is one member's epoch-boundary view (peak,
	// floor, weight, grant, measured power, throttle signal).
	ClusterObservation = cluster.Observation
	// ClusterEpochRecord is one cluster epoch: budget in force and
	// every member's grant/draw/slack line.
	ClusterEpochRecord = cluster.EpochRecord
	// ClusterMemberGrant is one member's line of a cluster epoch.
	ClusterMemberGrant = cluster.MemberGrant
	// ClusterMemberResult pairs a member id with its finalized run.
	ClusterMemberResult = cluster.MemberResult
	// ClusterMemberParams normalizes one member's arbitration
	// parameters (weight, floor fraction, optional BIPS target).
	ClusterMemberParams = cluster.MemberParams
	// ClusterSLOEvent is one throughput-contract transition
	// (slo_violated / slo_restored) in an epoch record's event list.
	ClusterSLOEvent = cluster.SLOEvent
)

// Typed errors of the cluster layer.
var (
	// ErrClusterDone is returned by Coordinator.Step once every member
	// finished: normal termination, not failure.
	ErrClusterDone = cluster.ErrDone
	// ErrUnknownClusterMember reports a Detach target that is not a
	// member.
	ErrUnknownClusterMember = cluster.ErrUnknownMember
)

// NewClusterCoordinator validates members and builds the fleet
// coordinator; Step runs one arbitrated cluster epoch.
func NewClusterCoordinator(cfg ClusterConfig, members []ClusterMember) (*ClusterCoordinator, error) {
	return cluster.New(cfg, members)
}

// NewStaticProportionalArbiter grants fixed shares proportional to each
// member machine's peak power.
func NewStaticProportionalArbiter() ClusterArbiter { return cluster.NewStaticProportional() }

// NewSlackReclaimArbiter shifts budget from members leaving watts on
// the table to members pressed against their cap, with hysteresis.
func NewSlackReclaimArbiter() ClusterArbiter { return cluster.NewSlackReclaim() }

// NewPriorityWeightedArbiter grants shares proportional to
// weight × peak.
func NewPriorityWeightedArbiter() ClusterArbiter { return cluster.NewPriorityWeighted() }

// NewSLOArbiter funds each contracted member's estimated demand for its
// BIPS target first and water-fills the remainder; infeasible contract
// sets degrade deterministically in proportion to the targets.
func NewSLOArbiter() ClusterArbiter { return cluster.NewSLOArbiter() }

// NewPredictiveArbiter pre-allocates each epoch's budget to a
// per-member forecast of next-epoch draw (EWMA level + trend),
// clamped to [floor, peak]; until every member's model is warm it
// behaves exactly like the slack reclaimer.
func NewPredictiveArbiter() ClusterArbiter { return cluster.NewPredictiveArbiter() }

// ClusterArbiterByName resolves an arbiter registry name ("static",
// "slack", "priority", "slo", "predictive") to a fresh arbiter
// instance.
func ClusterArbiterByName(name string) (ClusterArbiter, bool) { return cluster.ArbiterByName(name) }

// ClusterArbiterNames lists the arbiter registry in resolution order —
// the same table ClusterArbiterByName and the serving layer accept.
func ClusterArbiterNames() []string { return cluster.ArbiterNames() }

// Serving-layer cluster groups (POST /clusters on fastcapd).
type (
	// ClusterRequest is the create-group payload: global budget,
	// arbiter, members.
	ClusterRequest = serve.ClusterRequest
	// ClusterMemberRequest is one member of a group create or attach.
	ClusterMemberRequest = serve.ClusterMemberRequest
	// ClusterStatus is a group's externally visible snapshot.
	ClusterStatus = serve.ClusterStatus
	// ClusterMemberStatus describes one group member statically.
	ClusterMemberStatus = serve.ClusterMemberStatus
)

// Distributed coordination (fastcapd's /dist surface): the cluster
// coordinator split from its members, arbitrating one watt budget over
// the network with epoch barriers, straggler eviction and journaled
// crash recovery. See internal/dist.
type (
	// DistConfig bounds a distributed coordinator (budget, quorum,
	// straggler deadline, epoch cap).
	DistConfig = dist.Config
	// DistCoordinator runs the epoch-barrier protocol over a Transport.
	DistCoordinator = dist.Coordinator
	// DistAgentConfig wires an agent daemon: members, session builder,
	// send path, clock, journal, announce backoff.
	DistAgentConfig = dist.AgentConfig
	// DistAgent hosts member sessions for a remote coordinator.
	DistAgent = dist.Agent
	// DistMemberSpec declares one hosted member (id, weight, floor,
	// session spec).
	DistMemberSpec = dist.MemberSpec
	// DistMsg is one coordinator↔agent wire frame.
	DistMsg = dist.Msg
	// DistEvent is one typed membership-pressure event (join, readmit,
	// evict, detach, abandon).
	DistEvent = dist.Event
	// DistSimConfig seeds the deterministic in-memory transport and its
	// fault schedule.
	DistSimConfig = dist.SimConfig
	// DistFaults is the injectable fault mix: drop, duplicate, delay,
	// agent restarts.
	DistFaults = dist.Faults
	// DistRestart schedules one agent crash (and optional reboot) in a
	// simulated-transport fault plan.
	DistRestart = dist.Restart
	// DistSimNet is the simulated transport the chaos suite runs on.
	DistSimNet = dist.SimNet
	// DistBuildFunc constructs a member session from its JSON spec.
	DistBuildFunc = dist.BuildFunc
	// DistJournalStore persists an agent's grant history for restart
	// recovery.
	DistJournalStore = dist.JournalStore
	// DistMemJournal is the in-memory journal store (tests, examples).
	DistMemJournal = dist.MemJournal
	// DistFileJournal is the file-backed journal store fastcapd's
	// -agent-journal flag uses.
	DistFileJournal = dist.FileJournal
)

// DistSessionBuilder returns the session builder distributed agents
// use in fastcapd: member specs are the same JSON schema as
// POST /sessions (SessionRequest).
func DistSessionBuilder() DistBuildFunc { return serve.SessionFromSpec }

// NewDistCoordinator validates cfg and builds an idle distributed
// coordinator; Run starts the protocol over a transport.
func NewDistCoordinator(cfg DistConfig) (*DistCoordinator, error) { return dist.NewCoordinator(cfg) }

// NewDistAgent builds an agent (recovering journaled state when the
// config's journal store holds any); Start announces its members.
func NewDistAgent(cfg DistAgentConfig) (*DistAgent, error) { return dist.NewAgent(cfg) }

// NewDistSimNet builds the seeded in-memory transport used to test
// coordinator and agents deterministically, faults included.
func NewDistSimNet(cfg DistSimConfig) *DistSimNet { return dist.NewSimNet(cfg) }

// Figure-level harness (paper §IV).
type (
	// LabOptions control experiment fidelity.
	LabOptions = experiments.Options
	// Lab caches baselines and reproduces each figure.
	Lab = experiments.Lab
)

// NewLab builds an experiment harness; see the Lab's Fig* methods.
func NewLab(o LabOptions) *Lab { return experiments.NewLab(o) }
