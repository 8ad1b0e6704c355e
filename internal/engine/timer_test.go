package engine

import (
	"math"
	"testing"
)

func TestTimerFires(t *testing.T) {
	e := New()
	var at []float64
	tm := e.NewTimer(func() { at = append(at, e.Now()) })
	if tm.Pending() {
		t.Error("new timer pending")
	}
	tm.Reset(10)
	if !tm.Pending() {
		t.Error("armed timer not pending")
	}
	e.RunUntil(20)
	if len(at) != 1 || at[0] != 10 {
		t.Fatalf("fired at %v, want [10]", at)
	}
	if tm.Pending() {
		t.Error("fired timer still pending")
	}
}

func TestTimerResetReschedules(t *testing.T) {
	e := New()
	var at []float64
	tm := e.NewTimer(func() { at = append(at, e.Now()) })
	tm.Reset(10)
	tm.Reset(5) // earlier
	e.RunUntil(7)
	if len(at) != 1 || at[0] != 5 {
		t.Fatalf("fired at %v, want [5]", at)
	}
	tm.Reset(10) // re-arm after firing
	e.RunUntil(20)
	if len(at) != 2 || at[1] != 17 {
		t.Fatalf("fired at %v, want second at 17", at)
	}
	// Reset to a later time while pending.
	tm.Reset(1)
	tm.Reset(30)
	e.RunUntil(25)
	if len(at) != 2 {
		t.Fatalf("postponed timer fired early: %v", at)
	}
	e.RunUntil(60)
	if len(at) != 3 || at[2] != 50 {
		t.Fatalf("fired at %v, want third at 50", at)
	}
}

func TestTimerSelfResetInCallback(t *testing.T) {
	e := New()
	count := 0
	var tm *Timer
	tm = e.NewTimer(func() {
		count++
		if count < 5 {
			tm.Reset(10)
		}
	})
	tm.Reset(10)
	e.RunUntil(100)
	if count != 5 {
		t.Fatalf("fired %d times, want 5", count)
	}
}

// Timers armed for the same instant fire in arming order, not creation
// order (fresh FIFO sequence per Reset).
func TestTimerFIFOWithSchedule(t *testing.T) {
	e := New()
	var order []int
	t0 := e.NewTimer(func() { order = append(order, 0) })
	after(e, 7, func() { order = append(order, 1) })
	t2 := e.NewTimer(func() { order = append(order, 2) })
	t0.Reset(7) // created first, armed second → fires second
	t2.Reset(7)
	e.RunUntil(7)
	want := []int{1, 0, 2}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestTimerNegativeAndNaNDelay(t *testing.T) {
	e := New()
	e.RunUntil(5)
	var at []float64
	tm := e.NewTimer(func() { at = append(at, e.Now()) })
	tm.Reset(-3)
	e.RunUntil(5)
	tm.Reset(math.NaN())
	e.RunUntil(5)
	if len(at) != 2 || at[0] != 5 || at[1] != 5 {
		t.Fatalf("fired at %v, want [5 5]", at)
	}
}

// The steady-state event path must be allocation-free: re-arming timers
// and recycling one-shot nodes allocates nothing after warm-up.
func TestTimerResetDoesNotAllocate(t *testing.T) {
	e := New()
	tms := make([]*Timer, 16)
	for i := range tms {
		i := i
		tms[i] = e.NewTimer(func() { tms[i].Reset(float64(i + 1)) })
		tms[i].Reset(float64(i + 1))
	}
	horizon := 0.0
	avg := testing.AllocsPerRun(1000, func() {
		horizon += 100
		e.RunUntil(horizon)
	})
	if avg != 0 {
		t.Errorf("steady-state timer loop allocates %.1f per run, want 0", avg)
	}
}
