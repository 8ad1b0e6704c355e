package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegistryComplete(t *testing.T) {
	// Every application named in Table III must be registered.
	for _, mix := range TableIII {
		for _, name := range mix.Apps {
			if _, err := Lookup(name); err != nil {
				t.Errorf("mix %s: %v", mix.Name, err)
			}
		}
	}
	if _, err := Lookup("notanapp"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestRegistryPlausibleProfiles(t *testing.T) {
	for name, p := range registry {
		if p.MemWeight <= 0 {
			t.Errorf("%s: non-positive MemWeight", name)
		}
		if p.WriteFrac < 0 || p.WriteFrac > 1 {
			t.Errorf("%s: WriteFrac %g outside [0,1]", name, p.WriteFrac)
		}
		if p.ExecCPI < 1.0 || p.ExecCPI > 2.0 {
			t.Errorf("%s: ExecCPI %g implausible for in-order single-issue", name, p.ExecCPI)
		}
		if p.Activity <= 0 || p.Activity > 1 {
			t.Errorf("%s: Activity %g outside (0,1]", name, p.Activity)
		}
		if p.RowLocality < 0 || p.RowLocality > 1 {
			t.Errorf("%s: RowLocality %g outside [0,1]", name, p.RowLocality)
		}
		if p.PhaseAmp < 0 || p.PhaseAmp >= 1 {
			t.Errorf("%s: PhaseAmp %g outside [0,1)", name, p.PhaseAmp)
		}
	}
}

// Table III: every instantiated mix reproduces the published MPKI and
// WPKI exactly (the central workload calibration claim).
func TestTableIII_MPKIWPKI(t *testing.T) {
	for _, spec := range TableIII {
		for _, n := range []int{4, 16, 64} {
			w, err := Instantiate(spec, n)
			if err != nil {
				t.Fatalf("%s/%d: %v", spec.Name, n, err)
			}
			if got := w.MeanMPKI(); math.Abs(got-spec.MPKI) > 1e-9 {
				t.Errorf("%s/%d cores: MPKI %g, want %g", spec.Name, n, got, spec.MPKI)
			}
			if got := w.MeanWPKI(); math.Abs(got-spec.WPKI) > 1e-9 {
				t.Errorf("%s/%d cores: WPKI %g, want %g", spec.Name, n, got, spec.WPKI)
			}
		}
	}
}

func TestTableIIIClassMembership(t *testing.T) {
	counts := map[Class]int{}
	for _, m := range TableIII {
		counts[m.Class]++
	}
	for _, c := range []Class{ClassILP, ClassMID, ClassMEM, ClassMIX} {
		if counts[c] != 4 {
			t.Errorf("class %v has %d mixes, want 4", c, counts[c])
		}
		if got := len(MixesByClass(c)); got != 4 {
			t.Errorf("MixesByClass(%v) returned %d", c, got)
		}
	}
	if len(TableIII) != 16 {
		t.Errorf("Table III has %d rows, want 16", len(TableIII))
	}
}

func TestClassOrderingByMPKI(t *testing.T) {
	// MEM mixes must be more memory-intensive than MID, and MID than ILP.
	maxOf := func(c Class) float64 {
		v := 0.0
		for _, m := range MixesByClass(c) {
			v = math.Max(v, m.MPKI)
		}
		return v
	}
	minOf := func(c Class) float64 {
		v := math.Inf(1)
		for _, m := range MixesByClass(c) {
			v = math.Min(v, m.MPKI)
		}
		return v
	}
	if maxOf(ClassILP) >= minOf(ClassMID) {
		t.Error("ILP overlaps MID in MPKI")
	}
	if maxOf(ClassMID) >= minOf(ClassMEM) {
		t.Error("MID overlaps MEM in MPKI")
	}
}

func TestMixByName(t *testing.T) {
	m, err := MixByName("MEM1")
	if err != nil {
		t.Fatal(err)
	}
	if m.MPKI != 18.22 || m.Apps[0] != "swim" {
		t.Errorf("MEM1 = %+v", m)
	}
	if _, err := MixByName("NOPE"); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestInstantiateErrors(t *testing.T) {
	spec := TableIII[0]
	for _, n := range []int{0, -4, 3, 5, 17} {
		if _, err := Instantiate(spec, n); err == nil {
			t.Errorf("Instantiate with n=%d accepted", n)
		}
	}
	bad := spec
	bad.Apps[1] = "notanapp"
	if _, err := Instantiate(bad, 16); err == nil {
		t.Error("unknown app in mix accepted")
	}
}

func TestInstantiateLayout(t *testing.T) {
	w, err := Instantiate(TableIII[8], 16) // MEM1
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Apps) != 16 {
		t.Fatalf("got %d apps", len(w.Apps))
	}
	// 4 copies of each app, cycling through the mix order.
	for i, a := range w.Apps {
		wantName := TableIII[8].Apps[i%4]
		if a.Name != wantName {
			t.Errorf("core %d runs %s, want %s", i, a.Name, wantName)
		}
		if a.Copy != i/4 {
			t.Errorf("core %d copy = %d, want %d", i, a.Copy, i/4)
		}
	}
}

func TestMixDependentMPKI(t *testing.T) {
	// The same application must show different effective MPKI in
	// different mixes (shared-cache contention): applu in MEM1 vs MIX1.
	mem1, _ := Instantiate(TableIII[8], 4)  // MEM1: swim applu galgel equake
	mix1, _ := Instantiate(TableIII[12], 4) // MIX1: applu hmmer gap gzip
	var inMem, inMix float64
	for _, a := range mem1.Apps {
		if a.Name == "applu" {
			inMem = a.MPKI
		}
	}
	for _, a := range mix1.Apps {
		if a.Name == "applu" {
			inMix = a.MPKI
		}
	}
	if inMem <= 0 || inMix <= 0 {
		t.Fatal("applu not found")
	}
	if inMem <= inMix {
		t.Errorf("applu MPKI in MEM1 (%g) should exceed MIX1 (%g)", inMem, inMix)
	}
	// Within MIX1, applu must still dominate the misses.
	for _, a := range mix1.Apps {
		if a.Name != "applu" && a.MPKI >= inMix {
			t.Errorf("%s MPKI %g ≥ applu %g in MIX1", a.Name, a.MPKI, inMix)
		}
	}
}

func TestInstrPerMissAndWritebackProb(t *testing.T) {
	w, _ := Instantiate(TableIII[8], 4)
	for _, a := range w.Apps {
		ipm := a.InstrPerMiss()
		if math.Abs(ipm*a.MPKI-1000) > 1e-6 {
			t.Errorf("%s: InstrPerMiss inconsistent", a.Name)
		}
		p := a.WritebackProb()
		if p < 0 || p > 1 {
			t.Errorf("%s: writeback prob %g", a.Name, p)
		}
	}
	// Degenerate: zero MPKI yields zero writeback probability.
	z := App{AppProfile: AppProfile{Name: "x"}, MPKI: 0, WPKI: 1}
	if z.WritebackProb() != 0 {
		t.Error("zero-MPKI writeback prob should be 0")
	}
	// WPKI > MPKI clamps at 1.
	c := App{AppProfile: AppProfile{Name: "x"}, MPKI: 1, WPKI: 5}
	if c.WritebackProb() != 1 {
		t.Error("writeback prob should clamp at 1")
	}
}

func TestPhaseBounded(t *testing.T) {
	w, _ := Instantiate(TableIII[15], 16) // MIX4
	for _, a := range w.Apps {
		for e := 0; e < 500; e++ {
			v := a.Phase(e)
			if v < 1-a.PhaseAmp-1e-9 || v > 1+a.PhaseAmp+1e-9 {
				t.Fatalf("%s copy %d epoch %d: phase %g outside ±%g", a.Name, a.Copy, e, v, a.PhaseAmp)
			}
		}
	}
}

func TestPhaseDeterministic(t *testing.T) {
	w1, _ := Instantiate(TableIII[15], 16)
	w2, _ := Instantiate(TableIII[15], 16)
	for i := range w1.Apps {
		for e := 0; e < 100; e += 7 {
			if w1.Apps[i].Phase(e) != w2.Apps[i].Phase(e) {
				t.Fatalf("phase not deterministic for core %d epoch %d", i, e)
			}
		}
	}
}

func TestPhaseCopiesDecorrelated(t *testing.T) {
	w, _ := Instantiate(TableIII[8], 16)
	// Two copies of swim (cores 0 and 4) should not track each other.
	same := 0
	const epochs = 64
	for e := 0; e < epochs; e++ {
		if math.Abs(w.Apps[0].Phase(e)-w.Apps[4].Phase(e)) < 1e-9 {
			same++
		}
	}
	if same > epochs/4 {
		t.Errorf("copies identical in %d/%d epochs", same, epochs)
	}
}

func TestPhaseFlatWhenAmpZero(t *testing.T) {
	a := App{AppProfile: AppProfile{Name: "flat", PhaseAmp: 0, PhaseLen: 10}}
	for e := 0; e < 50; e++ {
		if a.Phase(e) != 1 {
			t.Fatalf("flat app phase %g at epoch %d", a.Phase(e), e)
		}
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{ClassILP: "ILP", ClassMID: "MID", ClassMEM: "MEM", ClassMIX: "MIX", Class(9): "Class(9)"}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

// Property: instantiating any mix at any valid core count preserves both
// table values and produces strictly positive per-instance rates.
func TestInstantiateProperty(t *testing.T) {
	f := func(mixIdx, nRaw uint8) bool {
		spec := TableIII[int(mixIdx)%len(TableIII)]
		n := 4 * (1 + int(nRaw)%16)
		w, err := Instantiate(spec, n)
		if err != nil {
			return false
		}
		if math.Abs(w.MeanMPKI()-spec.MPKI) > 1e-9 {
			return false
		}
		if math.Abs(w.MeanWPKI()-spec.WPKI) > 1e-9 {
			return false
		}
		for _, a := range w.Apps {
			if a.MPKI <= 0 || a.WPKI < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
