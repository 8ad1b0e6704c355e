// Package fastcap is the public API of this FastCap reproduction — an
// implementation of "FastCap: An Efficient and Fair Algorithm for Power
// Capping in Many-Core Systems" (Liu, Cox, Deng, Draper, Bianchini —
// ISPASS 2016) with its simulated many-core platform, baseline policies
// and experiment harness. It re-exports the part of the internal
// packages that its examples and tests use.
//
// Quick start: ExampleNewSession caps a simulated server with FastCap
// one control epoch at a time (go test -run ExampleNewSession -v .).
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
	"repro/internal/stats"
	"repro/internal/workload"
)

// DVFS ladders (paper §IV-A).
type Ladder = dvfs.Ladder

// DefaultCoreLadder returns 10 steps spanning 2.2–4.0 GHz at 0.65–1.2 V.
func DefaultCoreLadder() *Ladder { return dvfs.DefaultCoreLadder() }

// DefaultMemLadder returns 200–800 MHz in 66 MHz steps.
func DefaultMemLadder() *Ladder { return dvfs.DefaultMemLadder() }

// SbCandidatesFromLadder derives the optimizer's M candidate bus
// transfer times (paper §III-B, Algorithm 1) from a memory DVFS ladder.
func SbCandidatesFromLadder(sbBar float64, memLadder *Ladder) []float64 {
	return core.SbCandidatesFromLadder(sbBar, memLadder)
}

// Policy is one capping algorithm (paper §IV-B): Snapshot → Decision.
//
// Ownership contracts (performance-motivated):
//   - A policy instance may keep internal scratch across Decide
//     calls; use one instance per concurrent run. Instances must not
//     be shared between goroutines.
//   - The Snapshot (and its slices) passed to Decide is only valid
//     for the duration of the call — the runner refills one buffer
//     per epoch. Implementations that retain per-epoch data must
//     copy it.
type Policy = policy.Policy

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

type (
	// SystemConfig describes the simulated machine (paper §IV-A,
	// Table II).
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

type (
	// WorkloadSpec is one Table III row.
	WorkloadSpec = workload.MixSpec
	// Workload is an instantiated mix: one application per core.
	Workload = workload.Workload
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

type (
	// ExperimentConfig describes one capping run of the paper's §III-C
	// epoch protocol.
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

// SummarizePerf condenses per-application normalized performance (a
// run's NormalizedPerf against its baseline) into its mean (Avg), its
// worst value (Worst) and Jain's fairness index (Jain).
func SummarizePerf(norm []float64) stats.PerfSummary { return stats.SummarizePerf(norm) }

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

var (
	// ErrInvalidConfig tags configuration rejected up front by
	// NewSession/RunExperiment; test with errors.Is.
	ErrInvalidConfig = runner.ErrInvalidConfig
	// ErrSessionDone is returned by Session.Step after the last epoch:
	// normal termination, not failure.
	ErrSessionDone = runner.ErrDone
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

// Trace record/replay: policy dry-runs without the event engine.
type (
	// Recording is a captured run: static machine characteristics plus
	// the per-epoch measurement-window stream; JSON-serializable via
	// WriteJSON/ReadRecording.
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

type (
	// SessionManager is the fastcapd service: it owns concurrent capping
	// sessions — create, fair round-robin stepping, retarget, close — and
	// guarantees every session's stream and result are bit-identical
	// to a solo RunExperiment of the same configuration.
	SessionManager = serve.Manager
	// ServeOptions bounds the manager: scheduler pool size and the
	// resident-session admission limit.
	ServeOptions = serve.Options
	// SessionRequest is the create-session payload (POST /sessions).
	SessionRequest = serve.Request
)

// ErrSessionNotFound reports an unknown or deleted session id; test
// with errors.Is.
var ErrSessionNotFound = serve.ErrNotFound

// NewSessionManager starts a serving-layer manager and its scheduler
// pool; drain it with Shutdown.
func NewSessionManager(o ServeOptions) *SessionManager { return serve.NewManager(o) }

// NewServeHandler returns the fastcapd HTTP API over m: the session
// and cluster-group routes listed in the doc comment of
// internal/serve's NewHandler, which registers them.
func NewServeHandler(m *SessionManager) http.Handler { return serve.NewHandler(m) }

type (
	// ClusterCoordinator owns a global power budget and re-partitions
	// it across member sessions at each epoch boundary via a pluggable
	// arbiter, stepping every member in deterministic lockstep.
	ClusterCoordinator = cluster.Coordinator
	// ClusterConfig bounds a coordinator: global budget, arbiter,
	// member-step worker pool.
	ClusterConfig = cluster.Config
	// ClusterMember is one tenant: a Session plus its arbitration
	// parameters (id, priority weight, guaranteed floor, optional BIPS
	// contract).
	ClusterMember = cluster.Member
	// ClusterArbiter re-partitions the global budget each epoch.
	ClusterArbiter = cluster.Arbiter
)

// ErrClusterDone is returned by ClusterCoordinator.Step once every
// member finished: normal termination, not failure.
var ErrClusterDone = cluster.ErrDone

// NewClusterCoordinator validates members and builds the fleet
// coordinator; Step runs one arbitrated cluster epoch.
func NewClusterCoordinator(cfg ClusterConfig, members []ClusterMember) (*ClusterCoordinator, error) {
	return cluster.New(cfg, members)
}

// NewSlackReclaimArbiter shifts budget from members leaving watts on
// the table to members pressed against their cap, with hysteresis.
func NewSlackReclaimArbiter() ClusterArbiter { return cluster.NewSlackReclaim() }

// NewSLOArbiter funds each contracted member's estimated demand for its
// BIPS target first and water-fills the remainder; infeasible contract
// sets degrade deterministically in proportion to the targets.
func NewSLOArbiter() ClusterArbiter { return cluster.NewSLOArbiter() }

type (
	// DistConfig bounds a distributed coordinator (budget, quorum,
	// straggler deadline, epoch cap).
	DistConfig = dist.Config
	// DistCoordinator arbitrates one watt budget over the network
	// (fastcapd's /dist surface): epoch barriers, straggler eviction.
	DistCoordinator = dist.Coordinator
	// DistAgentConfig wires an agent daemon: members, session builder,
	// send path, clock, journal, announce backoff.
	DistAgentConfig = dist.AgentConfig
	// DistAgent hosts member sessions for a remote coordinator.
	DistAgent = dist.Agent
	// DistMemberSpec declares one hosted member (id, weight, floor,
	// session spec).
	DistMemberSpec = dist.MemberSpec
	// DistBuildFunc constructs a member session from its JSON spec.
	DistBuildFunc = dist.BuildFunc
	// DistMemJournal is the in-memory journal store an agent replays
	// after a restart.
	DistMemJournal = dist.MemJournal
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

type (
	// LabOptions control experiment fidelity.
	LabOptions = experiments.Options
	// Lab caches baselines and reproduces each figure of the paper's
	// §IV.
	Lab = experiments.Lab
)

// NewLab builds an experiment harness; see the Lab's Fig* methods.
func NewLab(o LabOptions) *Lab { return experiments.NewLab(o) }
