package sim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cpusim"
	"repro/internal/dvfs"
	"repro/internal/workload"
)

// CoreClass describes one named group of identical cores inside a
// heterogeneous machine: its own DVFS ladder, power calibration,
// microarchitectural speed factor, and (optionally) which applications
// its cores run. Zero-valued optional fields inherit the machine-wide
// defaults from Config (CoreLadder / CorePower).
type CoreClass struct {
	// Name labels the class in errors and reports ("big", "little",
	// "fast-bin", ...). Required, unique within a spec.
	Name string
	// Count is how many cores belong to the class. Classes occupy
	// contiguous core indices in spec order: class 0 owns cores
	// [0, Count0), class 1 the next Count1, and so on.
	Count int
	// Ladder is the class's core DVFS ladder; nil inherits
	// Config.CoreLadder.
	Ladder *dvfs.Ladder
	// Power is the class's power calibration; a zero value inherits
	// Config.CorePower.
	Power cpusim.PowerConfig
	// ExecCPIScale multiplies each application's ExecCPI on this class's
	// cores — the microarchitectural speed difference beyond frequency
	// (a little core retires fewer instructions per cycle). 0 means 1.
	ExecCPIScale float64
	// Apps optionally pins applications to this class's cores. When set,
	// the class's cores run these apps in order, cycling when Count is a
	// multiple of len(Apps). Either every class sets Apps (explicit
	// placement; the run's workload mix is ignored) or none does (the
	// mix's N/4 layout fills all cores, exactly as on a homogeneous
	// machine).
	Apps []string
}

// MachineSpec is a machine built from named core classes — the
// first-class description of asymmetric (big.LITTLE, binned-core)
// many-core parts. A nil spec in Config means the homogeneous machine:
// one implicit unnamed class holding every core on Config.CoreLadder
// with Config.CorePower.
type MachineSpec struct {
	// Name labels the machine in results and reports.
	Name string
	// Classes in core-index order; counts must sum to Config.Cores.
	Classes []CoreClass
}

// TotalCores sums the class counts.
func (m *MachineSpec) TotalCores() int {
	n := 0
	for _, c := range m.Classes {
		n += c.Count
	}
	return n
}

// Validate checks the spec's internal consistency against a core count.
// Ladder and power inheritance is resolved by Config.Layout, so nil
// ladders and zero power configs are valid here.
func (m *MachineSpec) Validate(cores int) error {
	if len(m.Classes) == 0 {
		return fmt.Errorf("sim: machine spec %q has no core classes", m.Name)
	}
	seen := map[string]bool{}
	placed := 0
	for ci, c := range m.Classes {
		if c.Name == "" {
			return fmt.Errorf("sim: machine spec %q class %d has no name", m.Name, ci)
		}
		if seen[c.Name] {
			return fmt.Errorf("sim: machine spec %q repeats class name %q", m.Name, c.Name)
		}
		seen[c.Name] = true
		if c.Count <= 0 {
			return fmt.Errorf("sim: class %q has core count %d, want > 0", c.Name, c.Count)
		}
		if c.Ladder != nil {
			if err := c.Ladder.Validate(); err != nil {
				return fmt.Errorf("sim: class %q ladder: %w", c.Name, err)
			}
		}
		if math.IsNaN(c.ExecCPIScale) || c.ExecCPIScale < 0 {
			return fmt.Errorf("sim: class %q ExecCPI scale %g, want >= 0 (0 means 1)", c.Name, c.ExecCPIScale)
		}
		for _, v := range []float64{c.Power.DynMaxW, c.Power.StaticW, c.Power.GateFrac} {
			if math.IsNaN(v) || v < 0 {
				return fmt.Errorf("sim: class %q has invalid power calibration", c.Name)
			}
		}
		if len(c.Apps) > 0 {
			if c.Count%len(c.Apps) != 0 {
				return fmt.Errorf("sim: class %q places %d apps on %d cores (count must be a multiple)", c.Name, len(c.Apps), c.Count)
			}
			placed++
		}
	}
	if placed != 0 && placed != len(m.Classes) {
		return fmt.Errorf("sim: machine spec %q places apps on %d of %d classes (all or none)", m.Name, placed, len(m.Classes))
	}
	if n := m.TotalCores(); n != cores {
		return fmt.Errorf("sim: machine spec %q describes %d cores for a %d-core config", m.Name, n, cores)
	}
	return nil
}

// Fingerprint returns a canonical content string of the spec — class
// counts, ladders (frequencies and voltages), power calibrations, CPI
// scales and placements. Caches must key on this rather than Name:
// names are labels, not identities, and may be empty or collide across
// structurally different machines.
func (m *MachineSpec) Fingerprint() string {
	var b strings.Builder
	b.WriteString(m.Name)
	for _, c := range m.Classes {
		fmt.Fprintf(&b, "|%s:%d:cpi%g:pw%g,%g,%g", c.Name, c.Count, c.ExecCPIScale,
			c.Power.DynMaxW, c.Power.StaticW, c.Power.GateFrac)
		if c.Ladder != nil {
			fmt.Fprintf(&b, ":f%v:v%v", c.Ladder.Freqs(), c.Ladder.Volts())
		}
		if len(c.Apps) > 0 {
			fmt.Fprintf(&b, ":apps%v", c.Apps)
		}
	}
	return b.String()
}

// MachineLayout is the per-core resolution of a Config's machine
// description: one ladder, power calibration and ExecCPI scale per
// core, with defaults inherited and class groups flattened. It is the
// seam every layer consumes — the simulator to build cores, the runner
// to size its controller state, the policies via the snapshot.
type MachineLayout struct {
	ladders  []*dvfs.Ladder
	powers   []cpusim.PowerConfig
	cpiScale []float64
	// apps is the explicit per-core placement, nil when the workload mix
	// supplies the layout.
	apps []string
}

// Layout resolves the config's machine description to per-core terms.
// A nil Machine is one implicit unnamed class that inherits everything
// (every core on Config.CoreLadder with Config.CorePower, scale 1); a
// non-nil one is validated against Config.Cores first.
func (c Config) Layout() (*MachineLayout, error) {
	n := c.Cores
	if n <= 0 {
		return nil, fmt.Errorf("sim: no cores")
	}
	l := &MachineLayout{
		ladders:  make([]*dvfs.Ladder, n),
		powers:   make([]cpusim.PowerConfig, n),
		cpiScale: make([]float64, n),
	}
	classes := []CoreClass{{Count: n}}
	if c.Machine != nil {
		if err := c.Machine.Validate(n); err != nil {
			return nil, err
		}
		classes = c.Machine.Classes
	}
	var placement []string
	core := 0
	for _, cl := range classes {
		ladder := cl.Ladder
		if ladder == nil {
			ladder = c.CoreLadder
		}
		if ladder == nil {
			return nil, fmt.Errorf("sim: missing core DVFS ladder: class %q sets none and the config has no default", cl.Name)
		}
		pw := cl.Power
		if pw == (cpusim.PowerConfig{}) {
			pw = c.CorePower
		}
		scale := cl.ExecCPIScale
		if scale == 0 {
			scale = 1
		}
		for k := 0; k < cl.Count; k++ {
			l.ladders[core] = ladder
			l.powers[core] = pw
			l.cpiScale[core] = scale
			if len(cl.Apps) > 0 {
				placement = append(placement, cl.Apps[k%len(cl.Apps)])
			}
			core++
		}
	}
	l.apps = placement
	return l, nil
}

// Ladder returns core i's DVFS ladder.
func (l *MachineLayout) Ladder(i int) *dvfs.Ladder { return l.ladders[i] }

// Ladders returns the per-core ladder slice, the shape
// policy.Snapshot.CoreLadders expects. Callers must not modify it.
func (l *MachineLayout) Ladders() []*dvfs.Ladder { return l.ladders }

// Power returns core i's power calibration.
func (l *MachineLayout) Power(i int) cpusim.PowerConfig { return l.powers[i] }

// ExecCPIScale returns core i's microarchitectural CPI factor.
func (l *MachineLayout) ExecCPIScale(i int) float64 { return l.cpiScale[i] }

// Workload instantiates the machine's workload: the explicit placement
// when the spec pins apps to classes, otherwise the mix's N/4 layout.
func (l *MachineLayout) Workload(mix workload.MixSpec, name string, cores int) (*workload.Workload, error) {
	if l.apps != nil {
		if name == "" {
			name = "placement"
		}
		return workload.InstantiatePlacement(name, l.apps)
	}
	return workload.Instantiate(mix, cores)
}
