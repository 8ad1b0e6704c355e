// Package workload synthesizes the SPEC CPU 2000/2006 application mixes
// of the FastCap paper's Table III. Real SPEC binaries and SimPoint
// traces are proprietary; instead each application is a statistical
// profile — memory intensity, execution CPI, writeback share, DRAM row
// locality, core activity factor, and phase behaviour — calibrated so
// that every Table III mix reproduces the published L2 MPKI and WPKI.
//
// Per-application L2 miss rates are *mix-dependent* in the paper (the
// 16 MB L2 is shared, so co-runners change each other's miss rates; the
// same application appears with very different effective MPKI in MEM1
// and MIX1). We model this with a global per-application memory
// intensity weight: within a mix, the published mix MPKI is distributed
// across the four applications in proportion to their weights, which
// both matches the table exactly and keeps relative intensities
// physically plausible.
package workload

import "fmt"

// Class labels the four workload categories of Table III.
type Class int

const (
	ClassILP Class = iota // compute-intensive
	ClassMID              // compute/memory balanced
	ClassMEM              // memory-intensive
	ClassMIX              // one or two applications from each class
)

// String returns the paper's class mnemonic.
func (c Class) String() string {
	switch c {
	case ClassILP:
		return "ILP"
	case ClassMID:
		return "MID"
	case ClassMEM:
		return "MEM"
	case ClassMIX:
		return "MIX"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// AppProfile is the static characterization of one application.
type AppProfile struct {
	Name string
	// MemWeight is the relative L2 miss intensity used to apportion a
	// mix's MPKI across its applications (dimensionless; roughly the
	// app's standalone L2 MPKI on a 16-core machine).
	MemWeight float64
	// WriteFrac scales the app's share of writeback traffic relative to
	// its share of misses (≈ dirty-eviction ratio).
	WriteFrac float64
	// ExecCPI is the cycles-per-instruction of the core pipeline when no
	// L2 miss is outstanding (in-order single-issue, L1 hits folded in).
	ExecCPI float64
	// Activity is the switching-activity factor of the core while
	// executing, scaling dynamic power; compute-dense codes run hotter.
	Activity float64
	// RowLocality is the probability that a memory access hits the
	// currently open DRAM row of its bank (spatial streaming apps high).
	RowLocality float64
	// PhaseAmp is the amplitude of slow multiplicative swings in memory
	// intensity across program phases (0 = flat, 0.5 = ±50%).
	PhaseAmp float64
	// PhaseLen is the characteristic phase duration in epochs.
	PhaseLen int
}

// registry lists every application appearing in Table III. MemWeight
// values are chosen so that, after per-mix normalization, each published
// mix MPKI is met exactly while cross-mix relative intensities remain
// plausible (e.g. swim ≫ gzip). ExecCPI/Activity/RowLocality follow the
// usual characterization of these codes: floating-point streaming codes
// (swim, applu, mgrid) have high row locality and lower activity;
// integer control codes (crafty, sjeng, gobmk) the reverse.
var registry = map[string]AppProfile{
	// SPEC compute-bound (ILP) applications.
	"vortex":   {Name: "vortex", MemWeight: 0.40, WriteFrac: 0.18, ExecCPI: 1.15, Activity: 0.95, RowLocality: 0.45, PhaseAmp: 0.25, PhaseLen: 24},
	"gcc":      {Name: "gcc", MemWeight: 0.27, WriteFrac: 0.20, ExecCPI: 1.25, Activity: 0.90, RowLocality: 0.40, PhaseAmp: 0.45, PhaseLen: 16},
	"sixtrack": {Name: "sixtrack", MemWeight: 0.12, WriteFrac: 0.25, ExecCPI: 1.05, Activity: 1.00, RowLocality: 0.50, PhaseAmp: 0.15, PhaseLen: 40},
	"mesa":     {Name: "mesa", MemWeight: 0.68, WriteFrac: 0.12, ExecCPI: 1.10, Activity: 0.95, RowLocality: 0.55, PhaseAmp: 0.20, PhaseLen: 32},
	"perlbmk":  {Name: "perlbmk", MemWeight: 0.17, WriteFrac: 0.22, ExecCPI: 1.20, Activity: 0.92, RowLocality: 0.40, PhaseAmp: 0.30, PhaseLen: 20},
	"crafty":   {Name: "crafty", MemWeight: 0.12, WriteFrac: 0.15, ExecCPI: 1.10, Activity: 1.00, RowLocality: 0.35, PhaseAmp: 0.10, PhaseLen: 48},
	"gzip":     {Name: "gzip", MemWeight: 0.22, WriteFrac: 0.18, ExecCPI: 1.15, Activity: 0.97, RowLocality: 0.60, PhaseAmp: 0.35, PhaseLen: 12},
	"eon":      {Name: "eon", MemWeight: 0.12, WriteFrac: 0.14, ExecCPI: 1.08, Activity: 0.98, RowLocality: 0.45, PhaseAmp: 0.10, PhaseLen: 36},
	// Balanced (MID) applications.
	"ammp":    {Name: "ammp", MemWeight: 1.40, WriteFrac: 0.38, ExecCPI: 1.30, Activity: 0.85, RowLocality: 0.50, PhaseAmp: 0.30, PhaseLen: 28},
	"gap":     {Name: "gap", MemWeight: 1.20, WriteFrac: 0.40, ExecCPI: 1.25, Activity: 0.85, RowLocality: 0.55, PhaseAmp: 0.25, PhaseLen: 24},
	"wupwise": {Name: "wupwise", MemWeight: 2.20, WriteFrac: 0.42, ExecCPI: 1.20, Activity: 0.82, RowLocality: 0.60, PhaseAmp: 0.20, PhaseLen: 32},
	"vpr":     {Name: "vpr", MemWeight: 2.24, WriteFrac: 0.42, ExecCPI: 1.35, Activity: 0.83, RowLocality: 0.45, PhaseAmp: 0.25, PhaseLen: 20},
	"astar":   {Name: "astar", MemWeight: 2.00, WriteFrac: 0.40, ExecCPI: 1.35, Activity: 0.84, RowLocality: 0.40, PhaseAmp: 0.35, PhaseLen: 16},
	"parser":  {Name: "parser", MemWeight: 2.08, WriteFrac: 0.42, ExecCPI: 1.30, Activity: 0.85, RowLocality: 0.45, PhaseAmp: 0.25, PhaseLen: 24},
	"twolf":   {Name: "twolf", MemWeight: 2.80, WriteFrac: 0.30, ExecCPI: 1.40, Activity: 0.86, RowLocality: 0.40, PhaseAmp: 0.20, PhaseLen: 28},
	"facerec": {Name: "facerec", MemWeight: 3.56, WriteFrac: 0.32, ExecCPI: 1.25, Activity: 0.84, RowLocality: 0.55, PhaseAmp: 0.30, PhaseLen: 20},
	"apsi":    {Name: "apsi", MemWeight: 0.80, WriteFrac: 0.55, ExecCPI: 1.25, Activity: 0.88, RowLocality: 0.50, PhaseAmp: 0.20, PhaseLen: 32},
	"bzip2":   {Name: "bzip2", MemWeight: 0.60, WriteFrac: 0.58, ExecCPI: 1.20, Activity: 0.90, RowLocality: 0.55, PhaseAmp: 0.40, PhaseLen: 12},
	// Memory-bound (MEM) applications.
	"swim":    {Name: "swim", MemWeight: 28.0, WriteFrac: 0.46, ExecCPI: 1.25, Activity: 0.70, RowLocality: 0.75, PhaseAmp: 0.15, PhaseLen: 40},
	"applu":   {Name: "applu", MemWeight: 24.9, WriteFrac: 0.44, ExecCPI: 1.30, Activity: 0.72, RowLocality: 0.70, PhaseAmp: 0.20, PhaseLen: 32},
	"galgel":  {Name: "galgel", MemWeight: 9.0, WriteFrac: 0.34, ExecCPI: 1.25, Activity: 0.75, RowLocality: 0.65, PhaseAmp: 0.30, PhaseLen: 24},
	"equake":  {Name: "equake", MemWeight: 11.0, WriteFrac: 0.30, ExecCPI: 1.35, Activity: 0.74, RowLocality: 0.60, PhaseAmp: 0.25, PhaseLen: 28},
	"art":     {Name: "art", MemWeight: 12.0, WriteFrac: 0.28, ExecCPI: 1.30, Activity: 0.76, RowLocality: 0.55, PhaseAmp: 0.35, PhaseLen: 16},
	"milc":    {Name: "milc", MemWeight: 7.3, WriteFrac: 0.32, ExecCPI: 1.30, Activity: 0.75, RowLocality: 0.60, PhaseAmp: 0.25, PhaseLen: 24},
	"mgrid":   {Name: "mgrid", MemWeight: 5.5, WriteFrac: 0.34, ExecCPI: 1.25, Activity: 0.74, RowLocality: 0.72, PhaseAmp: 0.15, PhaseLen: 36},
	"fma3d":   {Name: "fma3d", MemWeight: 6.2, WriteFrac: 0.33, ExecCPI: 1.30, Activity: 0.75, RowLocality: 0.62, PhaseAmp: 0.20, PhaseLen: 28},
	"sphinx3": {Name: "sphinx3", MemWeight: 4.4, WriteFrac: 0.50, ExecCPI: 1.30, Activity: 0.78, RowLocality: 0.58, PhaseAmp: 0.30, PhaseLen: 20},
	"lucas":   {Name: "lucas", MemWeight: 3.0, WriteFrac: 0.52, ExecCPI: 1.25, Activity: 0.77, RowLocality: 0.66, PhaseAmp: 0.20, PhaseLen: 32},
	// Applications appearing only in the MIX workloads.
	"hmmer": {Name: "hmmer", MemWeight: 1.50, WriteFrac: 0.60, ExecCPI: 1.10, Activity: 0.95, RowLocality: 0.55, PhaseAmp: 0.15, PhaseLen: 36},
	"gobmk": {Name: "gobmk", MemWeight: 1.00, WriteFrac: 0.25, ExecCPI: 1.25, Activity: 0.95, RowLocality: 0.35, PhaseAmp: 0.25, PhaseLen: 20},
	"sjeng": {Name: "sjeng", MemWeight: 0.80, WriteFrac: 0.20, ExecCPI: 1.20, Activity: 0.97, RowLocality: 0.35, PhaseAmp: 0.20, PhaseLen: 24},
}

// Lookup returns the profile for a named application.
func Lookup(name string) (AppProfile, error) {
	p, ok := registry[name]
	if !ok {
		return AppProfile{}, fmt.Errorf("workload: unknown application %q", name)
	}
	return p, nil
}
