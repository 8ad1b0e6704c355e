package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// after runs fn once, delay nanoseconds from now, on a timer of its own.
func after(e *Engine, delay float64, fn func()) {
	e.NewTimer(fn).Reset(delay)
}

func TestScheduleAndRun(t *testing.T) {
	e := New()
	var fired []float64
	after(e, 10, func() { fired = append(fired, e.Now()) })
	after(e, 5, func() { fired = append(fired, e.Now()) })
	after(e, 20, func() { fired = append(fired, e.Now()) })
	e.RunUntil(15)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired = %v, want [5 10]", fired)
	}
	if e.Now() != 15 {
		t.Errorf("Now = %g, want 15", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntil(25)
	if len(fired) != 3 || fired[2] != 20 {
		t.Fatalf("fired = %v, want third at 20", fired)
	}
}

func TestFIFOWithinSameInstant(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		after(e, 7, func() { order = append(order, i) })
	}
	e.RunUntil(7)
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestEventsCreatedDuringRun(t *testing.T) {
	e := New()
	var fired []float64
	after(e, 1, func() {
		fired = append(fired, e.Now())
		after(e, 1, func() { fired = append(fired, e.Now()) }) // at t=2
		after(e, 100, func() { fired = append(fired, e.Now()) })
	})
	e.RunUntil(10)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
}

func TestZeroAndNegativeDelay(t *testing.T) {
	e := New()
	e.RunUntil(5)
	var at []float64
	after(e, 0, func() { at = append(at, e.Now()) })
	after(e, -3, func() { at = append(at, e.Now()) })
	after(e, math.NaN(), func() { at = append(at, e.Now()) })
	e.RunUntil(5)
	if len(at) != 3 {
		t.Fatalf("fired %d, want 3", len(at))
	}
	for _, v := range at {
		if v != 5 {
			t.Errorf("fired at %g, want 5", v)
		}
	}
}

func TestRunUntilBackwardsIsNoop(t *testing.T) {
	e := New()
	e.RunUntil(10)
	fired := false
	after(e, 1, func() { fired = true })
	e.RunUntil(5) // in the past: no-op
	if fired {
		t.Error("event fired on backwards RunUntil")
	}
	if e.Now() != 10 {
		t.Errorf("Now moved backwards to %g", e.Now())
	}
	e.RunUntil(math.NaN())
	if e.Now() != 10 {
		t.Errorf("NaN horizon moved clock to %g", e.Now())
	}
}

func TestStep(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
	n := 0
	after(e, 2, func() { n++ })
	after(e, 1, func() { n++ })
	if !e.Step() || e.Now() != 1 || n != 1 {
		t.Errorf("first Step: now=%g n=%d", e.Now(), n)
	}
	if !e.Step() || e.Now() != 2 || n != 2 {
		t.Errorf("second Step: now=%g n=%d", e.Now(), n)
	}
}

func TestHeapOrderRandomized(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(42))
	const n = 2000
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * 1e6
	}
	var fired []float64
	for _, tt := range times {
		tt := tt
		after(e, tt, func() { fired = append(fired, tt) })
	}
	e.RunUntil(2e6)
	if len(fired) != n {
		t.Fatalf("fired %d, want %d", len(fired), n)
	}
	if !sort.Float64sAreSorted(fired) {
		t.Error("events fired out of order")
	}
}

func TestClockMonotoneDuringCallbacks(t *testing.T) {
	e := New()
	prev := -1.0
	rng := rand.New(rand.NewSource(7))
	var check func()
	count := 0
	check = func() {
		if e.Now() < prev {
			t.Fatalf("clock went backwards: %g < %g", e.Now(), prev)
		}
		prev = e.Now()
		count++
		if count < 500 {
			after(e, rng.Float64()*10, check)
		}
	}
	after(e, 0, check)
	e.RunUntil(1e5)
	if count != 500 {
		t.Fatalf("ran %d events, want 500", count)
	}
}

// Property: for any set of delays, events fire sorted and the engine
// clock ends exactly at the horizon.
func TestRunUntilProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []float64
		horizon := 3000.0
		for _, r := range raw {
			d := float64(r % 6000)
			after(e, d, func() { fired = append(fired, e.Now()) })
		}
		e.RunUntil(horizon)
		if e.Now() != horizon {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		for _, ts := range fired {
			if ts > horizon {
				return false
			}
		}
		// Everything beyond the horizon must still be pending.
		want := 0
		for _, r := range raw {
			if float64(r%6000) > horizon {
				want++
			}
		}
		return e.Pending() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
