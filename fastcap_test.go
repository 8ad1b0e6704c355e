package fastcap

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestPublicAPILadders(t *testing.T) {
	core, mem := DefaultCoreLadder(), DefaultMemLadder()
	if core.Len() != 10 || mem.Len() != 10 {
		t.Errorf("ladders: %d core, %d mem steps", core.Len(), mem.Len())
	}
	sb := SbCandidatesFromLadder(5.0, mem)
	if len(sb) != 10 || math.Abs(sb[0]-5.0) > 1e-9 {
		t.Errorf("candidates: %v", sb)
	}
}

func TestPublicAPIWorkloads(t *testing.T) {
	if got := len(Workloads()); got != 16 {
		t.Fatalf("got %d workloads", got)
	}
	spec, err := WorkloadByName("MEM1")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := InstantiateWorkload(spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wl.MeanMPKI()-18.22) > 1e-9 {
		t.Errorf("MEM1 MPKI = %g", wl.MeanMPKI())
	}
	if _, err := WorkloadByName("bogus"); err == nil {
		t.Error("bogus workload accepted")
	}
}

func TestPublicAPISystem(t *testing.T) {
	spec, err := WorkloadByName("ILP2")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := InstantiateWorkload(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSystemConfig(4)
	cfg.EpochNs = 5e5
	cfg.ProfileNs = 5e4
	sys, err := NewSystem(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if sys.PeakPowerW() <= 0 {
		t.Error("no peak power")
	}
	sys.Start()
	prof := sys.RunProfile()
	if len(prof.Cores) != 4 {
		t.Errorf("profile has %d cores", len(prof.Cores))
	}
}

func TestPublicAPILab(t *testing.T) {
	lab := NewLab(LabOptions{Cores: 4, Epochs: 3, EpochNs: 2e5, MixesPerClass: 1})
	bars, err := lab.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != 16 {
		t.Errorf("Fig3 returned %d bars", len(bars))
	}
}

// The streaming session facade: step-wise run with observer, mid-run
// retargeting, and batch equivalence.
func TestPublicAPISession(t *testing.T) {
	mix, err := WorkloadByName("MIX3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExperimentConfig{
		Sim:        DefaultSystemConfig(8),
		Mix:        mix,
		BudgetFrac: 0.60,
		Epochs:     8,
		Policy:     NewFastCapPolicy(),
	}
	cfg.Sim.EpochNs = 1e6
	cfg.Sim.ProfileNs = 1e5

	var streamed int
	ses, err := NewSession(cfg, WithObserver(func(e EpochRecord) { streamed++ }))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := ses.Step(context.Background()); err != nil {
			if errors.Is(err, ErrSessionDone) {
				break
			}
			t.Fatal(err)
		}
	}
	res := ses.Result()
	if streamed != cfg.Epochs || len(res.Epochs) != cfg.Epochs {
		t.Fatalf("streamed %d epochs, recorded %d, want %d", streamed, len(res.Epochs), cfg.Epochs)
	}

	cfg.Policy = NewFastCapPolicy()
	batch, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, res) {
		t.Error("session loop and RunExperiment diverged")
	}

	bad := cfg
	bad.Epochs = 0
	if _, err := NewSession(bad); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("invalid config error %v, want ErrInvalidConfig", err)
	}
}

// Record a run through the facade, replay it, and get the same result.
func TestPublicAPIRecordReplay(t *testing.T) {
	mix, err := WorkloadByName("MID2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExperimentConfig{
		Sim:        DefaultSystemConfig(4),
		Mix:        mix,
		BudgetFrac: 0.60,
		Epochs:     4,
		Policy:     NewFastCapPolicy(),
	}
	cfg.Sim.EpochNs = 5e5
	cfg.Sim.ProfileNs = 5e4

	wl, err := InstantiateWorkload(mix, cfg.Sim.Cores)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg.Sim, wl)
	if err != nil {
		t.Fatal(err)
	}
	recorder := NewRecorder(sys)
	ses, err := NewSession(cfg, WithPlatform(recorder))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := ses.Step(context.Background()); err != nil {
			if !errors.Is(err, ErrSessionDone) {
				t.Fatal(err)
			}
			break
		}
	}
	live := ses.Result()

	var buf bytes.Buffer
	if err := recorder.Recording().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := NewReplayPlatform(rec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = NewFastCapPolicy()
	ses, err = NewSession(cfg, WithPlatform(plat))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := ses.Step(context.Background()); err != nil {
			if !errors.Is(err, ErrSessionDone) {
				t.Fatal(err)
			}
			break
		}
	}
	if !reflect.DeepEqual(live, ses.Result()) {
		t.Error("replayed session diverged from the recorded live run")
	}
}

// The serving surface: a SessionManager multiplexes sessions whose
// streamed records and results match solo runs, over the re-exported
// types and the HTTP handler.
func TestPublicAPIServingLayer(t *testing.T) {
	m := NewSessionManager(ServeOptions{Workers: 2})
	defer m.Shutdown(context.Background())
	if h := NewServeHandler(m); h == nil {
		t.Fatal("nil HTTP handler")
	}

	req := SessionRequest{Mix: "MIX3", BudgetFrac: 0.6, Cores: 4, Epochs: 4, EpochMs: 0.5}
	st, err := m.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []EpochRecord
	for cursor := 0; ; cursor++ {
		rec, err := m.Next(context.Background(), st.ID, cursor)
		if err != nil {
			break
		}
		streamed = append(streamed, rec)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, solo) {
		t.Error("served result diverged from the solo run")
	}
	if !reflect.DeepEqual(streamed, solo.Epochs) {
		t.Error("served stream diverged from the solo run's epochs")
	}

	if _, err := m.Status("nope"); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("unknown id: %v, want ErrSessionNotFound", err)
	}
	if _, err := m.Create(SessionRequest{Mix: "NOPE", BudgetFrac: 0.6}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("bad mix: %v, want ErrInvalidConfig", err)
	}
}
