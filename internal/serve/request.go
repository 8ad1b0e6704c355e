package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/cpusim"
	"repro/internal/dvfs"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Serving-layer sanity bounds on a single session: requests beyond
// them are rejected with runner.ErrInvalidConfig. They exist because
// the HTTP surface is unauthenticated — the library imposes no such
// limits. MaxEpochCells bounds Epochs × Cores, the size driver of the
// session's flat record buffers (~50 MB at the limit); MaxEpochMs
// bounds how long one epoch (the cancellation granularity) can occupy
// a scheduler worker; MaxControllers bounds the per-controller memsim
// build and the Cores × Controllers access matrix (the largest default
// machine has 64 banks, so more controllers than that cannot each own
// a bank anyway).
const (
	MaxEpochs      = 100_000
	MaxCores       = 1024
	MaxEpochCells  = 2_000_000
	MaxEpochMs     = 10_000
	MaxControllers = 64
	// MaxCoreClasses bounds a heterogeneous machine request's class
	// list, and MaxLadderSteps each class's explicit ladder — both size
	// per-session allocations on an unauthenticated surface.
	MaxCoreClasses = 16
	MaxLadderSteps = 64
	// MaxPhaseShifts bounds a request's phase schedule; the workload
	// layer validates the entries themselves (ascending epochs, finite
	// positive scales).
	MaxPhaseShifts = 64
)

// Request describes one capping session to create — the JSON body of
// POST /sessions. Zero-valued optional fields take the defaults noted
// below; Mix and BudgetFrac must be set. Epochs, Cores and EpochMs are
// additionally bounded by MaxEpochs / MaxCores / MaxEpochMs.
type Request struct {
	// Mix is the Table III workload name (ILP1..MIX4). Required.
	Mix string `json:"mix"`
	// Policy is the capping algorithm: FastCap, CPU-only, Freq-Par,
	// Eql-Pwr, Eql-Freq, MaxBIPS, Greedy, or baseline (no capping).
	// Defaults to FastCap.
	Policy string `json:"policy,omitempty"`
	// BudgetFrac is the power budget as a fraction of peak, in (0, 1].
	BudgetFrac float64 `json:"budget_frac"`
	// Cores is the machine size, a positive multiple of 4. Default 16.
	Cores int `json:"cores,omitempty"`
	// Epochs is the run length. Default 40.
	Epochs int `json:"epochs,omitempty"`
	// EpochMs is the control epoch length in milliseconds (the paper
	// uses 5; the profiling window is a tenth, capped at 300 µs).
	// Default 1.
	EpochMs float64 `json:"epoch_ms,omitempty"`
	// Seed seeds the simulation. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// OoO selects idealized out-of-order cores.
	OoO bool `json:"ooo,omitempty"`
	// Controllers is the memory controller count; values above 1 split
	// the default bank population across controllers. Default 1.
	Controllers int `json:"controllers,omitempty"`
	// SkewedAccess skews the per-core controller access distribution
	// (meaningful with Controllers > 1).
	SkewedAccess bool `json:"skewed_access,omitempty"`
	// Record captures the session's measurement windows via
	// internal/replay; the trace is served at /sessions/{id}/recording
	// once the session finishes.
	Record bool `json:"record,omitempty"`
	// Machine, when set, builds a heterogeneous machine from named core
	// classes instead of the homogeneous default; class counts must sum
	// to Cores. When every class pins apps, Mix may be omitted.
	Machine *MachineRequest `json:"machine,omitempty"`
	// Phases shifts the workload's intensity mid-run: each entry scales
	// every app's phase multiplier from its epoch on (diurnal load,
	// batch-window surges). Epochs strictly ascending within [0,
	// MaxEpochs), at most MaxPhaseShifts entries.
	Phases workload.PhaseSchedule `json:"phases,omitempty"`
}

// MachineRequest is the JSON form of a heterogeneous machine spec.
type MachineRequest struct {
	// Name labels the machine in results ("bigLITTLE-4+12"); defaults
	// to "custom".
	Name string `json:"name,omitempty"`
	// Classes in core-index order.
	Classes []ClassRequest `json:"classes"`
}

// ClassRequest describes one core class. The ladder comes either from
// a named preset (Ladder) or an explicit uniform ladder (LadderSteps +
// frequency/voltage range) — setting both is rejected. Zero-valued
// power fields inherit the default core calibration.
type ClassRequest struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Ladder is a preset name: "perf" (the paper's 2.2–4.0 GHz ladder,
	// the default), "efficiency" (1.2–2.4 GHz), or "binned"
	// (2.0–3.6 GHz).
	Ladder string `json:"ladder,omitempty"`
	// Explicit uniform ladder: LadderSteps equally spaced frequencies in
	// [FMinGHz, FMaxGHz] at voltages in [VMinV, VMaxV].
	LadderSteps int     `json:"ladder_steps,omitempty"`
	FMinGHz     float64 `json:"fmin_ghz,omitempty"`
	FMaxGHz     float64 `json:"fmax_ghz,omitempty"`
	VMinV       float64 `json:"vmin_v,omitempty"`
	VMaxV       float64 `json:"vmax_v,omitempty"`
	// Power calibration; each zero-valued field inherits the default
	// core calibration individually (an all-zero triple inherits it
	// whole), so a class may override just dyn_max_w without silently
	// zeroing its leakage floor.
	DynMaxW  float64 `json:"dyn_max_w,omitempty"`
	StaticW  float64 `json:"static_w,omitempty"`
	GateFrac float64 `json:"gate_frac,omitempty"`
	// ExecCPIScale multiplies app CPI on this class (0 means 1).
	ExecCPIScale float64 `json:"exec_cpi_scale,omitempty"`
	// Apps pins applications to this class's cores (all classes or
	// none; count must be a multiple of len(Apps)).
	Apps []string `json:"apps,omitempty"`
}

// hasPlacement reports whether any class pins apps.
func (m *MachineRequest) hasPlacement() bool {
	for _, c := range m.Classes {
		if len(c.Apps) > 0 {
			return true
		}
	}
	return false
}

// spec resolves the request into a sim.MachineSpec, applying the
// serving layer's resource bounds before any ladder is built.
func (m *MachineRequest) spec() (*sim.MachineSpec, error) {
	if len(m.Classes) == 0 {
		return nil, fmt.Errorf("%w: machine has no core classes", runner.ErrInvalidConfig)
	}
	if len(m.Classes) > MaxCoreClasses {
		return nil, fmt.Errorf("%w: %d core classes above the serving limit %d", runner.ErrInvalidConfig, len(m.Classes), MaxCoreClasses)
	}
	name := m.Name
	if name == "" {
		name = "custom"
	}
	spec := &sim.MachineSpec{Name: name}
	for _, c := range m.Classes {
		if c.LadderSteps < 0 || c.LadderSteps > MaxLadderSteps {
			return nil, fmt.Errorf("%w: class %q ladder steps %d outside [1, %d]", runner.ErrInvalidConfig, c.Name, c.LadderSteps, MaxLadderSteps)
		}
		var ladder *dvfs.Ladder
		var err error
		switch {
		case c.LadderSteps > 0 && c.Ladder != "":
			return nil, fmt.Errorf("%w: class %q sets both a ladder preset and an explicit ladder", runner.ErrInvalidConfig, c.Name)
		case c.LadderSteps > 0:
			ladder, err = dvfs.NewUniformLadder(c.LadderSteps, c.FMinGHz, c.FMaxGHz, c.VMinV, c.VMaxV)
		default:
			ladder, err = dvfs.NamedCoreLadder(c.Ladder)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: class %q ladder: %w", runner.ErrInvalidConfig, c.Name, err)
		}
		pw := cpusim.PowerConfig{DynMaxW: c.DynMaxW, StaticW: c.StaticW, GateFrac: c.GateFrac}
		if pw != (cpusim.PowerConfig{}) {
			// Partial power specs fill omitted fields from the default
			// calibration; the layout's whole-struct inheritance would
			// otherwise take literal zeros and deflate the machine peak.
			def := cpusim.DefaultPower()
			if pw.DynMaxW == 0 {
				pw.DynMaxW = def.DynMaxW
			}
			if pw.StaticW == 0 {
				pw.StaticW = def.StaticW
			}
			if pw.GateFrac == 0 {
				pw.GateFrac = def.GateFrac
			}
		}
		spec.Classes = append(spec.Classes, sim.CoreClass{
			Name:         c.Name,
			Count:        c.Count,
			Ladder:       ladder,
			Power:        pw,
			ExecCPIScale: c.ExecCPIScale,
			Apps:         c.Apps,
		})
	}
	return spec, nil
}

func (r Request) withDefaults() Request {
	if r.Policy == "" {
		r.Policy = "FastCap"
	}
	if r.Cores == 0 {
		r.Cores = 16
	}
	if r.Epochs == 0 {
		r.Epochs = 40
	}
	if r.EpochMs == 0 {
		r.EpochMs = 1
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Controllers == 0 {
		r.Controllers = 1
	}
	return r
}

// policyByName instantiates a fresh policy per session — instances keep
// scratch state and must never be shared across concurrent runs.
func policyByName(name string) (policy.Policy, error) {
	switch name {
	case "FastCap":
		return policy.NewFastCap(), nil
	case "CPU-only":
		return policy.NewCPUOnly(), nil
	case "Freq-Par":
		return policy.NewFreqPar(), nil
	case "Eql-Pwr":
		return policy.NewEqlPwr(), nil
	case "Eql-Freq":
		return policy.NewEqlFreq(), nil
	case "MaxBIPS":
		return policy.NewMaxBIPS(), nil
	case "Greedy":
		return policy.NewGreedy(), nil
	case "baseline":
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: unknown policy %q", runner.ErrInvalidConfig, name)
	}
}

// Config resolves the request (after defaults) into the runner
// configuration the session executes — the exact same configuration a
// caller would hand to runner.Run to reproduce the session solo, which
// is how the golden tests verify the service. Validation failures wrap
// runner.ErrInvalidConfig; the runner's own fail-fast checks (budget
// range, mix contents, machine shape) run at session construction.
func (r Request) Config() (runner.Config, error) {
	r = r.withDefaults()
	var mix workload.MixSpec
	if r.Mix == "" && r.Machine != nil && r.Machine.hasPlacement() {
		// Full placement supplies the workload; no Table III mix needed.
	} else {
		var err error
		mix, err = workload.MixByName(r.Mix)
		if err != nil {
			return runner.Config{}, fmt.Errorf("%w: %w", runner.ErrInvalidConfig, err)
		}
	}
	pol, err := policyByName(r.Policy)
	if err != nil {
		return runner.Config{}, err
	}
	// The serve layer fronts an unauthenticated HTTP surface, so beyond
	// the runner's correctness validation it enforces sanity bounds: a
	// non-finite or huge epoch length would wedge a scheduler worker
	// inside one Step (cancellation is epoch-granular), and an enormous
	// epoch count or core count would allocate the session's flat
	// record buffers into an OOM kill before admission control runs.
	if math.IsNaN(r.EpochMs) || math.IsInf(r.EpochMs, 0) || r.EpochMs <= 0 || r.EpochMs > MaxEpochMs {
		return runner.Config{}, fmt.Errorf("%w: epoch length %g ms, want in (0, %g]", runner.ErrInvalidConfig, r.EpochMs, float64(MaxEpochMs))
	}
	if r.Epochs > MaxEpochs {
		return runner.Config{}, fmt.Errorf("%w: epoch count %d above the serving limit %d", runner.ErrInvalidConfig, r.Epochs, MaxEpochs)
	}
	if r.Cores > MaxCores {
		return runner.Config{}, fmt.Errorf("%w: core count %d above the serving limit %d", runner.ErrInvalidConfig, r.Cores, MaxCores)
	}
	if r.Epochs > 0 && r.Cores > 0 && r.Epochs*r.Cores > MaxEpochCells {
		return runner.Config{}, fmt.Errorf("%w: %d epochs × %d cores above the serving limit of %d epoch-cells",
			runner.ErrInvalidConfig, r.Epochs, r.Cores, MaxEpochCells)
	}
	if r.Controllers < 1 {
		return runner.Config{}, fmt.Errorf("%w: controller count %d, want >= 1", runner.ErrInvalidConfig, r.Controllers)
	}
	if r.Controllers > MaxControllers {
		return runner.Config{}, fmt.Errorf("%w: controller count %d above the serving limit %d", runner.ErrInvalidConfig, r.Controllers, MaxControllers)
	}
	sc := sim.DefaultConfig(r.Cores)
	sc.EpochNs = r.EpochMs * 1e6
	sc.ProfileNs = sim.ProfileWindowNs(sc.EpochNs)
	sc.OoO = r.OoO
	sc.Seed = r.Seed
	if r.Controllers > 1 {
		// Splitting the default bank population must leave every
		// controller at least one bank — a zero quotient would make
		// sim.New silently substitute 32 banks per controller and build
		// a machine far larger than the request described.
		banks := sc.BanksPerController / r.Controllers
		if banks < 1 {
			return runner.Config{}, fmt.Errorf("%w: %d controllers split %d banks to none each",
				runner.ErrInvalidConfig, r.Controllers, sc.BanksPerController)
		}
		sc.Controllers = r.Controllers
		sc.BanksPerController = banks
		sc.SkewedAccess = r.SkewedAccess
	}
	if r.Machine != nil {
		spec, err := r.Machine.spec()
		if err != nil {
			return runner.Config{}, err
		}
		if n := spec.TotalCores(); n != r.Cores {
			return runner.Config{}, fmt.Errorf("%w: machine classes describe %d cores, request has %d", runner.ErrInvalidConfig, n, r.Cores)
		}
		sc.Machine = spec
	}
	if len(r.Phases) > MaxPhaseShifts {
		return runner.Config{}, fmt.Errorf("%w: %d phase shifts above the serving limit %d", runner.ErrInvalidConfig, len(r.Phases), MaxPhaseShifts)
	}
	if err := r.Phases.Validate(); err != nil {
		return runner.Config{}, fmt.Errorf("%w: %w", runner.ErrInvalidConfig, err)
	}
	for _, sh := range r.Phases {
		if sh.Epoch >= MaxEpochs {
			return runner.Config{}, fmt.Errorf("%w: phase shift at epoch %d above the serving limit %d", runner.ErrInvalidConfig, sh.Epoch, MaxEpochs)
		}
	}
	sc.PhaseSchedule = r.Phases
	return runner.Config{
		Sim:        sc,
		Mix:        mix,
		BudgetFrac: r.BudgetFrac,
		Epochs:     r.Epochs,
		Policy:     pol,
	}, nil
}

// SessionFromSpec builds a standalone session from a Request encoded as
// JSON — the session-builder hook the distributed agent layer
// (internal/dist) uses, so remote cluster members are declared with
// exactly the session schema this API serves. Strict decode: unknown
// fields fail typed. Recording is a serving-layer feature and is
// rejected here — a remote member's recording would be unreachable.
func SessionFromSpec(raw json.RawMessage) (*runner.Session, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: member session spec: %w", runner.ErrInvalidConfig, err)
	}
	if req.Record {
		return nil, fmt.Errorf("%w: member session spec: record is not supported for remote cluster members", runner.ErrInvalidConfig)
	}
	cfg, err := req.Config()
	if err != nil {
		return nil, err
	}
	return runner.NewSession(cfg)
}
