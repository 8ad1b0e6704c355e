package policy

import (
	"math"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/qmodel"
)

// snap builds a plausible 16-core snapshot with a mix of CPU- and
// memory-bound cores under the default ladders.
func snap(n int, budgetFrac float64) *Snapshot {
	coreL, memL := dvfs.DefaultCoreLadder(), dvfs.DefaultMemLadder()
	s := &Snapshot{
		ZBar:          make([]float64, n),
		C:             make([]float64, n),
		IPA:           make([]float64, n),
		Power:         power.System{Ps: 12, Mem: power.Model{Scale: 26, Exp: 1, Static: 10}},
		MemStats:      []qmodel.MemStats{{Q: 2.0, U: 1.6, Sm: 28}},
		AccessProb:    make([][]float64, n),
		SbBar:         5,
		CoreLadder:    coreL,
		MemLadder:     memL,
		MeasuredCoreW: make([]float64, n),
		CurCoreSteps:  make([]int, n),
		CurMemStep:    memL.MaxStep(),
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			s.ZBar[i] = 1800 // CPU-bound
			s.IPA[i] = 4000
			s.MeasuredCoreW[i] = 4.3
		} else {
			s.ZBar[i] = 100 // memory-bound
			s.IPA[i] = 60
			s.MeasuredCoreW[i] = 3.2
		}
		s.C[i] = 7.5
		s.Power.Cores = append(s.Power.Cores, power.Model{Scale: 4.2, Exp: 2.5, Static: 0.5})
		s.AccessProb[i] = []float64{1}
		s.CurCoreSteps[i] = coreL.MaxStep()
	}
	s.BudgetW = budgetFrac * s.Power.Peak()
	return s
}

func checkDecision(t *testing.T, s *Snapshot, d Decision) {
	t.Helper()
	if len(d.CoreSteps) != s.N() {
		t.Fatalf("decision has %d core steps for %d cores", len(d.CoreSteps), s.N())
	}
	for i, st := range d.CoreSteps {
		if st < 0 || st >= s.CoreLadder.Len() {
			t.Errorf("core %d step %d out of range", i, st)
		}
	}
	if d.MemStep < 0 || d.MemStep >= s.MemLadder.Len() {
		t.Errorf("mem step %d out of range", d.MemStep)
	}
}

func allPolicies() []Policy {
	return []Policy{NewFastCap(), NewCPUOnly(), NewFreqPar(), NewEqlPwr(), NewEqlFreq()}
}

func TestAllPoliciesProduceValidDecisions(t *testing.T) {
	for _, p := range allPolicies() {
		for _, frac := range []float64{0.4, 0.6, 0.8, 1.0} {
			s := snap(16, frac)
			d, err := p.Decide(s)
			if err != nil {
				t.Fatalf("%s at %.0f%%: %v", p.Name(), frac*100, err)
			}
			checkDecision(t, s, d)
		}
	}
}

func TestAllPoliciesRejectBadSnapshot(t *testing.T) {
	for _, p := range append(allPolicies(), NewMaxBIPS()) {
		s := snap(4, 0.6)
		s.C = s.C[:2] // corrupt
		if _, err := p.Decide(s); err == nil {
			t.Errorf("%s accepted a corrupt snapshot", p.Name())
		}
	}
}

func TestFastCapRespectsBudget(t *testing.T) {
	for _, frac := range []float64{0.5, 0.6, 0.7, 0.8} {
		s := snap(16, frac)
		d, err := NewFastCap().Decide(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.PredictPower(d.CoreSteps, d.MemStep); got > s.BudgetW+1e-9 {
			t.Errorf("budget %.0f%%: predicted %g W > %g W", frac*100, got, s.BudgetW)
		}
	}
}

func TestFastCapGenerousBudgetRunsMax(t *testing.T) {
	s := snap(8, 1.0)
	d, err := NewFastCap().Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range d.CoreSteps {
		if st != s.CoreLadder.MaxStep() {
			t.Errorf("core %d at step %d under a 100%% budget", i, st)
		}
	}
	if d.MemStep != s.MemLadder.MaxStep() {
		t.Errorf("memory at step %d under a 100%% budget", d.MemStep)
	}
}

func TestFastCapBinaryMatchesExhaustive(t *testing.T) {
	s := snap(16, 0.6)
	mc := s.multi()
	dBin, err := NewFastCap().Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	dExh, err := (&FastCap{Guard: true, Exhaustive: true}).Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	objBin := s.objectiveD(dBin.CoreSteps, dBin.MemStep, mc)
	objExh := s.objectiveD(dExh.CoreSteps, dExh.MemStep, mc)
	if math.Abs(objBin-objExh) > 1e-9 {
		t.Errorf("binary objective %g != exhaustive %g", objBin, objExh)
	}
}

func TestFastCapFairnessBeatsEqlPwrOnMixes(t *testing.T) {
	// Heterogeneous snapshot: Eql-Pwr's equal shares must produce a worse
	// (or equal) fairness objective D than FastCap.
	s := snap(16, 0.6)
	mc := s.multi()
	dF, err := NewFastCap().Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	dE, err := NewEqlPwr().Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	dFObj := s.objectiveD(dF.CoreSteps, dF.MemStep, mc)
	dEObj := s.objectiveD(dE.CoreSteps, dE.MemStep, mc)
	if dFObj < dEObj-1e-9 {
		t.Errorf("FastCap D=%g worse than Eql-Pwr D=%g", dFObj, dEObj)
	}
}

func TestFastCapBeatsEqlFreq(t *testing.T) {
	s := snap(16, 0.55)
	mc := s.multi()
	dF, _ := NewFastCap().Decide(s)
	dQ, err := NewEqlFreq().Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	if fo, qo := s.objectiveD(dF.CoreSteps, dF.MemStep, mc), s.objectiveD(dQ.CoreSteps, dQ.MemStep, mc); fo < qo-1e-9 {
		t.Errorf("FastCap D=%g worse than Eql-Freq D=%g", fo, qo)
	}
}

func TestCPUOnlyPinsMemory(t *testing.T) {
	s := snap(16, 0.6)
	d, err := NewCPUOnly().Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	checkDecision(t, s, d)
	if d.MemStep != s.MemLadder.MaxStep() {
		t.Errorf("CPU-only moved memory to step %d", d.MemStep)
	}
	// With memory stuck at max power, cores must run slower than
	// FastCap's on a tight budget for CPU-bound loads.
	if got := s.PredictPower(d.CoreSteps, d.MemStep); got > s.BudgetW+1e-9 {
		t.Errorf("CPU-only over budget: %g > %g", got, s.BudgetW)
	}
}

func TestFreqParFeedbackConverges(t *testing.T) {
	// Iterate the controller against the model-predicted power; it should
	// bring core power close to its target share within a few epochs.
	p := NewFreqPar()
	s := snap(16, 0.6)
	var lastPower float64
	for epoch := 0; epoch < 30; epoch++ {
		d, err := p.Decide(s)
		if err != nil {
			t.Fatal(err)
		}
		checkDecision(t, s, d)
		// Simulate measurement: model-predicted per-core power at the
		// decided steps becomes next epoch's measurement.
		for i := range s.MeasuredCoreW {
			s.MeasuredCoreW[i] = s.Power.Cores[i].At(s.CoreLadder.NormFreq(d.CoreSteps[i]))
		}
		s.CurCoreSteps = d.CoreSteps
		s.MeasuredMemW = s.Power.Mem.Peak() // memory pinned at max
		lastPower = s.PredictPower(d.CoreSteps, d.MemStep)
	}
	if math.Abs(lastPower-s.BudgetW)/s.BudgetW > 0.10 {
		t.Errorf("Freq-Par settled at %g W vs budget %g W (>10%% off)", lastPower, s.BudgetW)
	}
}

func TestEqlPwrStarvesHungryCores(t *testing.T) {
	// With one very hungry core and the rest light, equal shares leave
	// the hungry core slow even though the light cores cannot use their
	// share — the outlier mechanism.
	s := snap(8, 0.55)
	for i := range s.Power.Cores {
		if i == 0 {
			s.Power.Cores[i].Scale = 8.0 // hungry
		} else {
			s.Power.Cores[i].Scale = 2.0
		}
	}
	d, err := NewEqlPwr().Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	hungry := d.CoreSteps[0]
	light := d.CoreSteps[2]
	if hungry >= light {
		t.Errorf("hungry core step %d not below light core step %d", hungry, light)
	}
}

func TestEqlFreqUniform(t *testing.T) {
	s := snap(8, 0.6)
	d, err := NewEqlFreq().Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d.CoreSteps); i++ {
		if d.CoreSteps[i] != d.CoreSteps[0] {
			t.Fatalf("Eql-Freq produced non-uniform steps: %v", d.CoreSteps)
		}
	}
	if got := s.PredictPower(d.CoreSteps, d.MemStep); got > s.BudgetW {
		t.Errorf("over budget: %g > %g", got, s.BudgetW)
	}
}

func TestEqlFreqInfeasibleFloors(t *testing.T) {
	s := snap(8, 0.6)
	s.BudgetW = 1 // impossible
	d, err := NewEqlFreq().Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range d.CoreSteps {
		if st != 0 {
			t.Errorf("infeasible budget: steps %v, want all 0", d.CoreSteps)
		}
	}
}

func TestMaxBIPSPrefersThroughput(t *testing.T) {
	s := snap(4, 0.6)
	p := NewMaxBIPS()
	d, err := p.Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	checkDecision(t, s, d)
	if got := s.PredictPower(d.CoreSteps, d.MemStep); got > s.BudgetW {
		t.Errorf("over budget: %g > %g", got, s.BudgetW)
	}
	// MaxBIPS must achieve at least FastCap's predicted throughput (it
	// optimizes throughput directly and searches exhaustively).
	mc := s.multi()
	dF, _ := NewFastCap().Decide(s)
	bipsMax := s.predictBIPS(d.CoreSteps, d.MemStep, mc)
	bipsF := s.predictBIPS(dF.CoreSteps, dF.MemStep, mc)
	if bipsMax < bipsF-1e-9 {
		t.Errorf("MaxBIPS throughput %g below FastCap %g", bipsMax, bipsF)
	}
	// ... but its fairness objective is typically no better.
	if dMax := s.objectiveD(d.CoreSteps, d.MemStep, mc); dMax > s.objectiveD(dF.CoreSteps, dF.MemStep, mc)+1e-9 {
		t.Logf("note: MaxBIPS D=%g beat FastCap here (possible on homogeneous snapshots)", dMax)
	}
}

func TestMaxBIPSRefusesLargeN(t *testing.T) {
	s := snap(16, 0.6)
	if _, err := NewMaxBIPS().Decide(s); err == nil {
		t.Error("MaxBIPS accepted 16 cores")
	}
}

func TestMaxBIPSInfeasibleFloors(t *testing.T) {
	s := snap(4, 0.6)
	s.BudgetW = 1
	d, err := NewMaxBIPS().Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range d.CoreSteps {
		if st != 0 {
			t.Fatalf("steps %v under impossible budget", d.CoreSteps)
		}
	}
}

func TestSnapshotValidate(t *testing.T) {
	if err := snap(4, 0.6).Validate(); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
	muts := []func(*Snapshot){
		func(s *Snapshot) { s.ZBar = nil },
		func(s *Snapshot) { s.IPA = s.IPA[:1] },
		func(s *Snapshot) { s.MemStats = nil },
		func(s *Snapshot) { s.CoreLadder = nil },
		func(s *Snapshot) { s.SbBar = 0 },
		func(s *Snapshot) { s.BudgetW = -1 },
	}
	for i, mut := range muts {
		s := snap(4, 0.6)
		mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestObjectiveDAtMaxIsOne(t *testing.T) {
	s := snap(8, 1.0)
	mc := s.multi()
	steps := make([]int, 8)
	for i := range steps {
		steps[i] = s.CoreLadder.MaxStep()
	}
	if d := s.objectiveD(steps, s.MemLadder.MaxStep(), mc); math.Abs(d-1) > 1e-9 {
		t.Errorf("objective at all-max = %g, want 1", d)
	}
	// Any slower assignment strictly reduces D.
	slower := make([]int, 8)
	if d := s.objectiveD(slower, 0, mc); d >= 1 {
		t.Errorf("objective at all-min = %g, want < 1", d)
	}
}
