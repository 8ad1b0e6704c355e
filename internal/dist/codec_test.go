package dist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/runner"
)

// The oracle: the codec dist ran before its hand-written one —
// json.Marshal, and a json.Decoder with unknown fields disallowed, one
// value per frame. The differential tests below hold AppendMsg to the
// first byte for byte and DecodeMsg to the second in verdict and value.

func oracleEncode(m dist.Msg) ([]byte, error) { return json.Marshal(m) }

func oracleDecode(data []byte) (dist.Msg, error) {
	if len(data) > dist.MaxResultBytes {
		return dist.Msg{}, fmt.Errorf("%w: %d bytes above the %d-byte limit", dist.ErrBadMessage, len(data), dist.MaxResultBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m dist.Msg
	if err := dec.Decode(&m); err != nil {
		return dist.Msg{}, fmt.Errorf("%w: %v", dist.ErrBadMessage, err)
	}
	if m.Type != dist.TypeResult && len(data) > dist.MaxMsgBytes {
		return dist.Msg{}, fmt.Errorf("%w: %d-byte %s message above the %d-byte limit", dist.ErrBadMessage, len(data), m.Type, dist.MaxMsgBytes)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return dist.Msg{}, fmt.Errorf("%w: trailing data after message", dist.ErrBadMessage)
	}
	if err := m.Validate(); err != nil {
		return dist.Msg{}, err
	}
	return m, nil
}

// sameBits is reflect.DeepEqual that also tells -0 from 0 (and would
// match NaN with NaN): floats compare by bit pattern. Nil and empty
// slices differ, as they do for DeepEqual.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// clip keeps failure output readable when the frame is a megabyte.
func clip(b []byte) string {
	if len(b) > 300 {
		return fmt.Sprintf("%s…(%d bytes)", b[:300], len(b))
	}
	return string(b)
}

// checkEncode asserts AppendMsg(m) is json.Marshal(m): the same error
// verdict, the same bytes, appended after what dst already held.
func checkEncode(t testing.TB, m dist.Msg) []byte {
	t.Helper()
	want, wantErr := oracleEncode(m)
	prefix := []byte("#")
	got, err := dist.AppendMsg(prefix, m)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("AppendMsg(%+v) error = %v, json.Marshal error = %v", m, err, wantErr)
	}
	if err != nil {
		if string(got) != "#" {
			t.Fatalf("AppendMsg returned %q beside its error, want dst unextended", clip(got))
		}
		return nil
	}
	if string(got[:1]) != "#" || !bytes.Equal(got[1:], want) {
		t.Fatalf("AppendMsg differs from json.Marshal\n got: %s\nwant: %s", clip(got[1:]), clip(want))
	}
	return want
}

// checkDecode asserts DecodeMsg(data) is the oracle's decode: both
// accept or both reject with ErrBadMessage, and accepted values are
// equal to the bit.
func checkDecode(t testing.TB, data []byte) (dist.Msg, bool) {
	t.Helper()
	want, wantErr := oracleDecode(data)
	got, err := dist.DecodeMsg(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("DecodeMsg(%s) error = %v, oracle error = %v", clip(data), err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, dist.ErrBadMessage) {
			t.Fatalf("DecodeMsg(%s) error %v is not ErrBadMessage", clip(data), err)
		}
		return dist.Msg{}, false
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeMsg(%s)\n got: %+v\nwant: %+v", clip(data), got, want)
	}
	return got, true
}

var allTypes = []dist.Type{
	dist.TypeAnnounce, dist.TypeWelcome, dist.TypeGrant, dist.TypeReport, dist.TypeResult,
	dist.TypeEvict, dist.TypeDetach, dist.TypeHeartbeat, dist.TypeError,
}

// The floats where encoding/json changes notation or where shortest
// round-trip digits are at their longest.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 0.1 + 0.2, 1.0 / 3, 2.0 / 3, 100, 1e6,
	1e-6, math.Nextafter(1e-6, 0), 1e-7, 9.999999e-7, 1.5e-9, 1e-10, 1e-100, // 'f' → 'e' below 1e-6; e-09 → e-9, e-10 stays
	1e20, 1e21, math.Nextafter(1e21, 0), 123456789012345680000, 1.5e300,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	1 << 53, 1<<53 + 2, math.Nextafter(1, 2), math.Nextafter(1, 0), 4.35, 0.3, 2.675, 5e-5,
	23.456789012345, 21.98765432101, 1.23456789e6,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

var edgeStrings = []string{
	"", "m", "a0.m2", "agent-1", "MIX3", "fastcap",
	`q"uote`, `back\slash`, "<lt", "gt>", "a&b", "tab\there", "nl\nhere", "\b\f\r", "\x00\x1f\x7f",
	"sep\u2028para\u2029", "café", "日本", "bad\xffutf8", "\xc3", "\xe2\x80", strings.Repeat("x", 300),
}

// wild fills v with arbitrary values through reflection, so a field
// added to Msg, runner.Result or runner.EpochRecord is exercised (and a
// codec that forgot it fails) without anyone touching this generator.
func wild(r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(edgeStrings[r.Intn(len(edgeStrings))])
	case reflect.Int:
		switch r.Intn(6) {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt(-int64(r.Intn(5)))
		case 2:
			v.SetInt(int64(r.Uint64()))
		case 3:
			v.SetInt([]int64{math.MaxInt64, math.MinInt64, 1e18, -1e18, 999999999999999999}[r.Intn(5)])
		default:
			v.SetInt(int64(r.Intn(5000)))
		}
	case reflect.Float64:
		v.SetFloat(wildFloat(r))
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.Pointer:
		if r.Intn(3) == 0 {
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		wild(r, v.Elem())
	case reflect.Slice:
		switch n := r.Intn(6); n {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := 0; i < v.Len(); i++ {
				wild(r, v.Index(i))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if r.Intn(4) > 0 { // leave a quarter zero: omitempty
				wild(r, v.Field(i))
			}
		}
	default:
		panic("wild: no generator for " + v.Kind().String())
	}
}

func wildFloat(r *rand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return edgeFloats[r.Intn(len(edgeFloats))]
	case 1:
		return float64(r.Intn(1000))
	case 2:
		return r.Float64()
	case 3:
		return r.Float64() * 100
	case 4:
		return math.Float64frombits(r.Uint64()) // any exponent, now and then NaN or Inf
	case 5:
		return r.NormFloat64() * 1e-6 // either side of the 'e' switch
	case 6:
		return r.Float64() * 2e21
	case 7:
		return math.Pow(10, float64(r.Intn(80)-40))
	case 8:
		return -r.Float64() * 50
	default:
		return r.ExpFloat64() * 1e6
	}
}

// wildMsg is an arbitrary Msg of type typ: most fail Validate, which is
// the point — the codec must agree with the oracle on those too.
func wildMsg(r *rand.Rand, typ dist.Type) dist.Msg {
	var m dist.Msg
	wild(r, reflect.ValueOf(&m).Elem())
	m.Type = typ
	return m
}

// tameMsg is a Msg of type typ inside its bounds, the traffic a healthy
// fleet sends: these are the frames the canonical decoder takes.
func tameMsg(r *rand.Rand, typ dist.Type) dist.Msg {
	id := func() string { return fmt.Sprintf("a%d.m%d", r.Intn(4), r.Intn(16)) }
	pos := func(scale float64) float64 { return (r.Float64() + 1e-3) * scale }
	m := dist.Msg{Type: typ, Member: id(), Epoch: r.Intn(5000)}
	if r.Intn(2) == 0 {
		m.Agent = fmt.Sprintf("a%d", r.Intn(4))
	}
	switch typ {
	case dist.TypeAnnounce:
		m.PeakW, m.Weight, m.FloorFrac = pos(200), pos(4), r.Float64()
		m.TotalEpochs = 1 + r.Intn(5000)
		m.DoneEpochs = r.Intn(m.TotalEpochs + 1)
		if r.Intn(2) == 0 {
			m.TargetBIPS, m.EpochNs = pos(8), 5e5
		}
	case dist.TypeGrant:
		m.GrantW = pos(120)
	case dist.TypeReport:
		m.MemberEpoch = r.Intn(5000)
		m.PowerW, m.ThrottleFrac, m.Instr = pos(120), r.Float64(), pos(1e7)
		m.Done = r.Intn(8) == 0
	case dist.TypeResult:
		m.Result = tameResult(r, r.Intn(40))
	case dist.TypeError:
		m.Err = "member refused"
	}
	return m
}

func tameResult(r *rand.Rand, epochs int) *runner.Result {
	cores := 1 + r.Intn(8)
	floats := func(scale float64) []float64 {
		v := make([]float64, cores)
		for i := range v {
			v[i] = r.Float64() * scale
		}
		return v
	}
	res := &runner.Result{
		Mix: "MIX3", PolicyName: "fastcap", Cores: cores, PeakW: 80 + r.Float64(), BudgetW: 50 + r.Float64(),
		TotalInstr: floats(1e9), NsPerInstr: floats(2), TotalTimeNs: r.Float64() * 1e9,
	}
	if epochs > 0 || r.Intn(2) == 0 {
		res.Epochs = make([]runner.EpochRecord, epochs)
	}
	for i := range res.Epochs {
		steps := make([]int, cores)
		for c := range steps {
			steps[c] = r.Intn(10)
		}
		res.Epochs[i] = runner.EpochRecord{
			Epoch: i, AvgPowerW: r.Float64() * 80, CoresW: r.Float64() * 60, MemW: r.Float64() * 20,
			BudgetW: res.BudgetW, PeakW: res.PeakW, CoreSteps: steps, MemStep: r.Intn(10),
			Instr: floats(1e6), CoreW: floats(10),
			PredictedPowerW: r.Float64() * 80, RestPowerW: r.Float64() * 80,
			PredictedRespNs: r.Float64() * 100, MeasuredRespNs: r.Float64() * 100,
		}
	}
	return res
}

// differential runs one message through both halves: encode parity,
// then decode parity on the frame it made.
func differential(t testing.TB, m dist.Msg) {
	t.Helper()
	if frame := checkEncode(t, m); frame != nil {
		checkDecode(t, frame)
	}
}

// TestWireDifferentialRandom is the bulk of the proof: seeded random
// messages of all nine types, wild and tame, against the oracle.
func TestWireDifferentialRandom(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	r := rand.New(rand.NewSource(16))
	for i := 0; i < n; i++ {
		typ := allTypes[i%len(allTypes)]
		differential(t, wildMsg(r, typ))
		differential(t, tameMsg(r, typ))
	}
}

// TestWireEncodeEdges names the values where a hand-written encoder
// goes wrong first.
func TestWireEncodeEdges(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, f := range edgeFloats {
		// Under omitempty, and inside Result where nothing is omitted.
		differential(t, dist.Msg{Type: dist.TypeGrant, Member: "m", GrantW: f})
		differential(t, dist.Msg{Type: dist.TypeResult, Member: "m", Result: &runner.Result{
			PeakW: f, TotalInstr: []float64{f, -f}, Epochs: []runner.EpochRecord{{AvgPowerW: f, Instr: []float64{f}}},
		}})
	}
	for _, s := range edgeStrings {
		differential(t, dist.Msg{Type: dist.Type(s), Member: s, Agent: s, Err: s})
		differential(t, dist.Msg{Type: dist.TypeResult, Member: "m", Result: &runner.Result{Mix: s, PolicyName: s}})
	}
	cases := map[string]dist.Msg{
		"zero message":     {},
		"-0 omitted":       {Type: dist.TypeReport, Member: "m", PowerW: negZero, Instr: negZero},
		"-0 inside result": {Type: dist.TypeResult, Member: "m", Result: &runner.Result{PeakW: negZero, TotalTimeNs: negZero}},
		"done false":       {Type: dist.TypeReport, Member: "m", Done: false},
		"done true":        {Type: dist.TypeReport, Member: "m", Done: true},
		"negative ints":    {Type: dist.TypeReport, Member: "m", Epoch: -3, MemberEpoch: math.MinInt64, TotalEpochs: math.MaxInt64},
		"nil result":       {Type: dist.TypeResult, Member: "m"},
		"Epochs nil":       {Type: dist.TypeResult, Member: "m", Result: &runner.Result{}},
		"Epochs empty":     {Type: dist.TypeResult, Member: "m", Result: &runner.Result{Epochs: []runner.EpochRecord{}, TotalInstr: []float64{}, NsPerInstr: []float64{}}},
		"empty CoreSteps":  {Type: dist.TypeResult, Member: "m", Result: &runner.Result{Epochs: []runner.EpochRecord{{CoreSteps: []int{}, Instr: []float64{}}, {CoreSteps: nil}, {CoreSteps: []int{-1, 0, 7}}}}},
		"every field set":  {Type: dist.TypeAnnounce, Member: "m", Agent: "a", Epoch: 1, PeakW: 2, Weight: 3, FloorFrac: 0.5, TotalEpochs: 9, DoneEpochs: 4, TargetBIPS: 5, EpochNs: 6, GrantW: 7, MemberEpoch: 8, PowerW: 9, ThrottleFrac: 0.25, Instr: 10, Done: true, Result: &runner.Result{}, Err: "e"},
		"64 KiB + 1 grant": {Type: dist.TypeGrant, Member: strings.Repeat("x", dist.MaxMsgBytes+1-len(`{"type":"grant","member":"","grant_w":1}`)), GrantW: 1},
	}
	for name, m := range cases {
		t.Run(name, func(t *testing.T) { differential(t, m) })
	}
	t.Run("result above 16 MiB", func(t *testing.T) {
		if testing.Short() {
			t.Skip("encodes 16 MiB twice")
		}
		m := dist.Msg{Type: dist.TypeResult, Member: "m", Result: tameResult(rand.New(rand.NewSource(1)), 1)}
		rec := m.Result.Epochs[0]
		one, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		m.Result.Epochs = make([]runner.EpochRecord, dist.MaxResultBytes/len(one)+1)
		for i := range m.Result.Epochs {
			m.Result.Epochs[i] = rec
		}
		frame := checkEncode(t, m)
		if len(frame) <= dist.MaxResultBytes {
			t.Fatalf("fixture is %d bytes, want above %d", len(frame), dist.MaxResultBytes)
		}
		if _, ok := checkDecode(t, frame); ok {
			t.Error("oversized result accepted")
		}
	})
}

// TestWireDecodeEdges names the inputs that must leave the canonical
// decoder for the strict one — and the ones that need not. accept is
// the oracle's verdict, pinned so the table documents the protocol;
// parity with the oracle is asserted for every row either way.
func TestWireDecodeEdges(t *testing.T) {
	res := `{"Mix":"MIX1","PolicyName":"fastcap","Cores":2,"PeakW":40,"BudgetW":28,"Epochs":null,"TotalInstr":[1,2],"NsPerInstr":[3,4],"TotalTimeNs":5e6}`
	rec := `{"Epoch":0,"AvgPowerW":1,"CoresW":1,"MemW":1,"BudgetW":1,"PeakW":1,"CoreSteps":[1,2],"MemStep":0,"Instr":[1,2],"CoreW":[1,2],"PredictedPowerW":0,"RestPowerW":0,"PredictedRespNs":0,"MeasuredRespNs":0}`
	withEpochs := func(epochs string) string { return strings.Replace(res, `"Epochs":null`, `"Epochs":`+epochs, 1) }
	cases := []struct {
		name   string
		in     string
		accept bool
	}{
		{"canonical grant", `{"type":"grant","member":"m1","epoch":3,"grant_w":17.25}`, true},
		{"canonical report", `{"type":"report","member":"m1","agent":"a1","epoch":3,"member_epoch":2,"power_w":12.5,"throttle_frac":0.25,"instr":1e6,"done":true}`, true},
		{"canonical result", `{"type":"result","member":"m1","result":` + res + `}`, true},
		{"result with records", `{"type":"result","member":"m1","result":` + withEpochs("["+rec+","+rec+"]") + `}`, true},
		{"result Epochs empty", `{"type":"result","member":"m1","result":` + withEpochs("[]") + `}`, true},
		{"report done false", `{"type":"report","member":"m1","done":false}`, true},
		{"grant with announce fields", `{"type":"grant","member":"m1","peak_w":40,"total_epochs":8,"grant_w":1}`, true},
		{"announce", `{"type":"announce","member":"m1","agent":"a1","peak_w":40,"weight":2,"floor_frac":0.1,"total_epochs":8}`, true},
		{"heartbeat", `{"type":"heartbeat","agent":"a1"}`, true},
		{"error", `{"type":"error","err":"boom"}`, true},

		{"keys reordered", `{"member":"m1","grant_w":17.25,"type":"grant"}`, true},
		{"type last", `{"grant_w":1,"member":"m1","epoch":3,"type":"grant"}`, true},
		{"key TYPE", `{"TYPE":"grant","member":"m1","grant_w":1}`, true},
		{"key Grant_W", `{"type":"grant","member":"m1","Grant_W":1}`, true},
		{"result key folded", `{"type":"result","member":"m1","result":` + strings.Replace(res, `"Cores"`, `"cores"`, 1) + `}`, true},
		{"result keys reordered", `{"type":"result","member":"m1","result":{"PolicyName":"p","Mix":"x"}}`, true},
		{"result field missing", `{"type":"result","member":"m1","result":{"Mix":"x"}}`, true},
		{"duplicate key", `{"type":"grant","member":"m1","grant_w":1,"grant_w":2}`, true},
		{"duplicate type", `{"type":"grant","type":"grant","member":"m1","grant_w":1}`, true},
		{"duplicate type changes it", `{"type":"grant","member":"m1","grant_w":1,"type":"heartbeat"}`, true},
		{"epoch null", `{"type":"grant","member":"m1","epoch":null,"grant_w":1}`, true},
		{"member null", `{"type":"grant","member":null,"grant_w":1}`, false},
		{"result null", `{"type":"result","member":"m1","result":null}`, false},
		{"epoch 1e2", `{"type":"grant","member":"m1","epoch":1e2,"grant_w":1}`, false},
		{"epoch 1.0", `{"type":"grant","member":"m1","epoch":1.0,"grant_w":1}`, false},
		{"epoch -0", `{"type":"grant","member":"m1","epoch":-0,"grant_w":1}`, true},
		{"epoch 01", `{"type":"grant","member":"m1","epoch":01,"grant_w":1}`, false},
		{"epoch above int64", `{"type":"grant","member":"m1","epoch":9223372036854775808,"grant_w":1}`, false},
		{"epoch quoted", `{"type":"grant","member":"m1","epoch":"3","grant_w":1}`, false},
		{"grant -0", `{"type":"grant","member":"m1","grant_w":-0}`, false},
		{"report power -0", `{"type":"report","member":"m1","power_w":-0}`, true},
		{"result -0", `{"type":"result","member":"m1","result":` + strings.Replace(res, `"PeakW":40`, `"PeakW":-0`, 1) + `}`, true},
		{"grant 1e999", `{"type":"grant","member":"m1","grant_w":1e999}`, false},
		{"grant underflows to 0", `{"type":"grant","member":"m1","grant_w":1e-999}`, false},
		{"report instr underflows", `{"type":"report","member":"m1","instr":1e-999}`, true},
		{"grant NaN", `{"type":"grant","member":"m1","grant_w":NaN}`, false},
		{"grant Infinity", `{"type":"grant","member":"m1","grant_w":Infinity}`, false},
		{"grant hex", `{"type":"grant","member":"m1","grant_w":0x10}`, false},
		{"grant underscore", `{"type":"grant","member":"m1","grant_w":1_0}`, false},
		{"grant +1", `{"type":"grant","member":"m1","grant_w":+1}`, false},
		{"grant .5", `{"type":"grant","member":"m1","grant_w":.5}`, false},
		{"grant 5.", `{"type":"grant","member":"m1","grant_w":5.}`, false},
		{"grant 1e", `{"type":"grant","member":"m1","grant_w":1e}`, false},
		{"grant 1E+2", `{"type":"grant","member":"m1","grant_w":1E+2}`, true},
		{"grant bare minus", `{"type":"grant","member":"m1","grant_w":-}`, false},
		{"grant 40 digits", `{"type":"grant","member":"m1","grant_w":1.000000000000000000000000000000000000001}`, true},
		{"done 1", `{"type":"report","member":"m1","done":1}`, false},
		{"done True", `{"type":"report","member":"m1","done":True}`, false},

		{"escaped quote in id", `{"type":"grant","member":"m\"1","grant_w":1}`, true},
		{"escaped backslash in id", `{"type":"grant","member":"m\\1","grant_w":1}`, true},
		{"unicode escape in id", `{"type":"grant","member":"m\u00311","grant_w":1}`, true},
		{"escape in key", `{"type":"grant","member":"m1","gr\u0061nt_w":1}`, true},
		{"escape in type", `{"type":"gr\u0061nt","member":"m1","grant_w":1}`, true},
		{"raw < > & in id", `{"type":"grant","member":"<m&1>","grant_w":1}`, true},
		{"raw U+2028 in id", "{\"type\":\"grant\",\"member\":\"m\u20281\",\"grant_w\":1}", true},
		{"raw UTF-8 in id", "{\"type\":\"grant\",\"member\":\"café\",\"grant_w\":1}", true},
		{"invalid UTF-8 in id", "{\"type\":\"grant\",\"member\":\"m\xff1\",\"grant_w\":1}", true},
		{"raw newline in id", "{\"type\":\"grant\",\"member\":\"m\n1\",\"grant_w\":1}", false},
		{"raw NUL in id", "{\"type\":\"grant\",\"member\":\"m\x001\",\"grant_w\":1}", false},
		{"DEL in id", "{\"type\":\"grant\",\"member\":\"m\x7f1\",\"grant_w\":1}", true},
		{"unterminated id", `{"type":"grant","member":"m1`, false},
		{"id of 256", `{"type":"grant","member":"` + strings.Repeat("a", 256) + `","grant_w":1}`, true},
		{"id of 257", `{"type":"grant","member":"` + strings.Repeat("a", 257) + `","grant_w":1}`, false},

		{"leading space", ` {"type":"grant","member":"m1","grant_w":1}`, true},
		{"inner space", `{"type":"grant", "member":"m1","grant_w":1}`, true},
		{"space after colon", `{"type": "grant","member":"m1","grant_w":1}`, true},
		{"space in array", `{"type":"result","member":"m1","result":` + strings.Replace(res, `[1,2]`, `[1, 2]`, 1) + `}`, true},
		{"trailing newline", `{"type":"grant","member":"m1","grant_w":1}` + "\n", true},
		{"trailing space", `{"type":"grant","member":"m1","grant_w":1} `, true},
		{"trailing brace", `{"type":"grant","member":"m1","grant_w":1}}`, false},
		{"trailing frame", `{"type":"grant","member":"m1","grant_w":1}{"type":"heartbeat"}`, false},
		{"trailing comma", `{"type":"grant","member":"m1","grant_w":1,}`, false},
		{"array trailing comma", `{"type":"result","member":"m1","result":` + strings.Replace(res, `[1,2]`, `[1,2,]`, 1) + `}`, false},
		{"truncated", `{"type":"grant","member":"m1","grant_w":1`, false},
		{"truncated in result", `{"type":"result","member":"m1","result":` + res[:len(res)-20], false},
		{"record truncated", `{"type":"result","member":"m1","result":` + withEpochs("["+rec[:60]), false},
		{"unknown field", `{"type":"grant","member":"m1","grant_w":1,"backdoor":true}`, false},
		{"unknown result field", `{"type":"result","member":"m1","result":{"Mix":"x","Backdoor":1}}`, false},
		{"unknown type", `{"type":"gossip","member":"m1"}`, false},
		{"type prefix of grant", `{"type":"grants","member":"m1","grant_w":1}`, false},
		{"huge Cores sizes nothing", `{"type":"result","member":"m1","result":` + strings.Replace(res, `"Cores":2`, `"Cores":9000000000000000000`, 1) + `}`, true},
		{"negative Cores", `{"type":"result","member":"m1","result":` + strings.Replace(res, `"Cores":2`, `"Cores":-5`, 1) + `}`, true},
		{"64 KiB + 1 grant", `{"type":"grant","member":"` + strings.Repeat("x", dist.MaxMsgBytes) + `","grant_w":1}`, false},
		{"empty", "", false},
		{"open brace", "{", false},
		{"array", "[1,2,3]", false},
		{"null", "null", false},
		{"empty object", "{}", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := checkDecode(t, []byte(tc.in)); ok != tc.accept {
				t.Errorf("DecodeMsg(%s) accepted = %v, want %v", clip([]byte(tc.in)), ok, tc.accept)
			}
		})
	}
}

// FuzzWireDifferential is the standing proof that the hand-written
// codec is encoding/json: for arbitrary bytes DecodeMsg and the oracle
// agree on verdict and value, and whatever decodes encodes to
// json.Marshal's bytes and decodes back in agreement too. The corpus is
// a tame and a wild frame of each of the nine types plus the shapes
// FuzzDistMessage starts from; the CI smoke runs the two side by side.
func FuzzWireDifferential(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, typ := range allTypes {
		for _, m := range []dist.Msg{tameMsg(r, typ), wildMsg(r, typ)} {
			if b, err := oracleEncode(m); err == nil {
				f.Add(b)
			}
		}
	}
	for _, s := range []string{
		`{"type":"grant","member":"m1","grant_w":NaN}`,
		`{"type":"grant","member":"m1","grant_w":1e999}`,
		`{"type":"grant","member":"m1","epoch":1.0,"grant_w":1}`,
		`{"type":"grant","member":"m\u00311","grant_w":1,"grant_w":2} `,
		`{"TYPE":"report","member":"m1","power_w":null}`,
		`{"type":"result","member":"m1","result":{"Mix":"MIX1","PolicyName":"fastcap","Cores":4,"PeakW":40,"BudgetW":28,"TotalInstr":[1,2],"NsPerInstr":[3,4],"TotalTimeNs":5e6}}`,
		`{"type":"announce","member":"m1","peak_w":-40,"total_epochs":8}`,
		`{"type":"announce","member":"m1","peak_w":40,"total_epochs":8,"target_bips":4}`,
		"", "{", "[1,2,3]", "null",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, ok := checkDecode(t, data); ok {
			differential(t, m)
		}
	})
}
