package qmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestResponseEquation1(t *testing.T) {
	// R = Q(sm + U·sb): hand-computed cases.
	m := MemStats{Q: 2, U: 3, Sm: 20}
	if got := m.Response(5); got != 2*(20+3*5.0) {
		t.Errorf("Response(5) = %g, want 70", got)
	}
	if got := m.Response(0); got != 40 {
		t.Errorf("Response(0) = %g, want 40", got)
	}
	// Linear and increasing in sb.
	if m.Response(10) <= m.Response(5) {
		t.Error("Response not increasing in sb")
	}
}

func TestMemStatsValid(t *testing.T) {
	if !(MemStats{Q: 1, U: 1, Sm: 1}).Valid() {
		t.Error("minimal valid stats rejected")
	}
	bad := []MemStats{
		{Q: 0.5, U: 1, Sm: 1},
		{Q: 1, U: 0, Sm: 1},
		{Q: 1, U: 1, Sm: 0},
		{Q: math.NaN(), U: 1, Sm: 1},
	}
	for i, m := range bad {
		if m.Valid() {
			t.Errorf("bad stats %d accepted: %+v", i, m)
		}
	}
}

func TestClamp(t *testing.T) {
	m := MemStats{Q: 0.2, U: math.NaN(), Sm: -4}
	c := m.Clamp(15)
	if c.Q != 1 || c.U != 1 || c.Sm != 15 {
		t.Errorf("Clamp = %+v", c)
	}
	// Already-valid stats pass through unchanged.
	ok := MemStats{Q: 2.5, U: 1.5, Sm: 22}
	if got := ok.Clamp(15); got != ok {
		t.Errorf("Clamp changed valid stats: %+v", got)
	}
}

func TestMultiUniform(t *testing.T) {
	stats := []MemStats{
		{Q: 1, U: 1, Sm: 20},
		{Q: 3, U: 2, Sm: 30},
	}
	mc := &Multi{Stats: stats, Access: [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}}
	// Uniform: core response is the average of the two controllers.
	sb := 5.0
	want := 0.5*stats[0].Response(sb) + 0.5*stats[1].Response(sb)
	for i := 0; i < 4; i++ {
		if got := mc.CoreResponse(i, sb); math.Abs(got-want) > 1e-12 {
			t.Errorf("core %d response = %g, want %g", i, got, want)
		}
	}
}

func TestMultiSkewed(t *testing.T) {
	stats := []MemStats{
		{Q: 1, U: 1, Sm: 20},
		{Q: 5, U: 4, Sm: 40},
	}
	mc := &Multi{
		Stats: stats,
		Access: [][]float64{
			{1.0, 0.0},
			{0.0, 1.0},
		},
	}
	sb := 10.0
	if got := mc.CoreResponse(0, sb); got != stats[0].Response(sb) {
		t.Errorf("core 0 sees %g, want controller 0 only", got)
	}
	if got := mc.CoreResponse(1, sb); got != stats[1].Response(sb) {
		t.Errorf("core 1 sees %g, want controller 1 only", got)
	}
	// Core 1's controller is hotter → higher response.
	if mc.CoreResponse(1, sb) <= mc.CoreResponse(0, sb) {
		t.Error("skew not reflected in responses")
	}
}

func TestMVASingleCustomer(t *testing.T) {
	// One customer: no queueing anywhere, response = sm + sb exactly.
	resp, x := MVA(1, 100, 8, 30, 5)
	if math.Abs(resp-35) > 1e-9 {
		t.Errorf("1-customer response = %g, want 35", resp)
	}
	wantX := 1.0 / (100 + 35)
	if math.Abs(x-wantX) > 1e-12 {
		t.Errorf("1-customer throughput = %g, want %g", x, wantX)
	}
}

func TestMVADegenerate(t *testing.T) {
	if r, x := MVA(0, 10, 4, 10, 1); r != 0 || x != 0 {
		t.Error("MVA(0 customers) must be zero")
	}
	if r, x := MVA(4, 10, 0, 10, 1); r != 0 || x != 0 {
		t.Error("MVA(0 banks) must be zero")
	}
}

func TestMVAMonotoneInPopulation(t *testing.T) {
	// More customers → more contention → response non-decreasing.
	prev := 0.0
	for n := 1; n <= 32; n++ {
		r, _ := MVA(n, 200, 8, 30, 5)
		if r < prev-1e-9 {
			t.Fatalf("MVA response decreased at n=%d: %g < %g", n, r, prev)
		}
		prev = r
	}
}

func TestMVAThroughputSaturates(t *testing.T) {
	// With a slow bus (the bottleneck), throughput must approach 1/sb.
	sb := 10.0
	_, x := MVA(64, 50, 16, 5, sb)
	if x > 1/sb+1e-9 {
		t.Errorf("throughput %g exceeds bus capacity %g", x, 1/sb)
	}
	if x < 0.9/sb {
		t.Errorf("throughput %g did not approach bus capacity %g", x, 1/sb)
	}
}

func TestMVALightLoadMatchesNoQueueing(t *testing.T) {
	// Huge think time → negligible queueing → response ≈ sm + sb.
	r, _ := MVA(16, 1e9, 8, 30, 5)
	if math.Abs(r-35) > 0.1 {
		t.Errorf("light-load response = %g, want ≈35", r)
	}
}

// Property: Eq. 1 response is affine in sb with slope Q·U and intercept Q·sm.
func TestResponseAffineProperty(t *testing.T) {
	f := func(q8, u8, sm8, sb8 uint8) bool {
		q := 1 + float64(q8)/16.0
		u := 1 + float64(u8)/16.0
		sm := 1 + float64(sm8)
		sb := float64(sb8) / 4.0
		m := MemStats{Q: q, U: u, Sm: sm}
		want := q*sm + q*u*sb
		return math.Abs(m.Response(sb)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CoreResponse is a convex combination — bounded by the min and
// max controller responses.
func TestCoreResponseBounded(t *testing.T) {
	f := func(p8 uint8, sb8 uint8) bool {
		p := float64(p8) / 255.0
		sb := float64(sb8) / 8.0
		stats := []MemStats{
			{Q: 1.2, U: 1.1, Sm: 20},
			{Q: 4.0, U: 2.5, Sm: 35},
		}
		mc := &Multi{Stats: stats, Access: [][]float64{{p, 1 - p}}}
		r := mc.CoreResponse(0, sb)
		lo := math.Min(stats[0].Response(sb), stats[1].Response(sb))
		hi := math.Max(stats[0].Response(sb), stats[1].Response(sb))
		return r >= lo-1e-9 && r <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
