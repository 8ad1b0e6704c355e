package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/runner"
)

// The wire codec. Frames are the JSON encoding/json produces for Msg —
// that is the protocol, and the strict json.Decoder path below remains
// the arbiter of what is accepted. The two hand-written halves exist
// because a fleet exchanges a grant and a report per member per epoch
// and reflection made that exchange the dearest part of a wire epoch:
//
//   - AppendMsg emits, byte for byte, what json.Marshal(m) emits.
//   - decodeCanonical reads back exactly that shape and declines
//     everything else.
//
// FuzzWireDifferential holds both to encoding/json as the oracle.

// AppendMsg appends m's one-line wire form (no trailing newline) to dst
// and returns the extended buffer: the bytes json.Marshal(m) produces,
// without reflection and without allocating when dst has room. A
// non-finite float is an error, as it is for json.Marshal; dst is then
// returned unextended.
func AppendMsg(dst []byte, m Msg) ([]byte, error) {
	e := encoder{b: dst}
	e.raw(`{"type":`)
	e.str(string(m.Type))
	e.optStr(`,"member":`, m.Member)
	e.optStr(`,"agent":`, m.Agent)
	e.optInt(`,"epoch":`, m.Epoch)
	e.optFloat(`,"peak_w":`, m.PeakW)
	e.optFloat(`,"weight":`, m.Weight)
	e.optFloat(`,"floor_frac":`, m.FloorFrac)
	e.optInt(`,"total_epochs":`, m.TotalEpochs)
	e.optInt(`,"done_epochs":`, m.DoneEpochs)
	e.optFloat(`,"target_bips":`, m.TargetBIPS)
	e.optFloat(`,"epoch_ns":`, m.EpochNs)
	e.optFloat(`,"grant_w":`, m.GrantW)
	e.optInt(`,"member_epoch":`, m.MemberEpoch)
	e.optFloat(`,"power_w":`, m.PowerW)
	e.optFloat(`,"throttle_frac":`, m.ThrottleFrac)
	e.optFloat(`,"instr":`, m.Instr)
	if m.Done {
		e.raw(`,"done":true`)
	}
	if m.Result != nil {
		e.raw(`,"result":`)
		e.result(m.Result)
	}
	e.optStr(`,"err":`, m.Err)
	e.raw(`}`)
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// encoder appends JSON to b. The first value JSON cannot carry sticks
// in err; appending continues harmlessly and AppendMsg discards b.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// float formats like encoding/json (ES6 number-to-string): shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, exponents
// not padded to two digits.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("dist: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// The opt* forms are omitempty: a zero value (-0 included, as
// reflect's IsZero has it) writes nothing.
func (e *encoder) optStr(key, s string) {
	if s != "" {
		e.raw(key)
		e.str(s)
	}
}

func (e *encoder) optInt(key string, v int) {
	if v != 0 {
		e.raw(key)
		e.int(v)
	}
}

func (e *encoder) optFloat(key string, f float64) {
	if f != 0 {
		e.raw(key)
		e.float(f)
	}
}

const hexDigits = "0123456789abcdef"

// plainASCII reports an ASCII byte that json.Marshal copies into a
// string unescaped: everything from space up except the quote, the
// backslash and the three HTML-sensitive characters.
func plainASCII(c byte) bool {
	return c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// str quotes s as json.Marshal does, HTML escaping on: control bytes,
// quote, backslash, <, > and & are escaped, U+2028/U+2029 are escaped,
// invalid UTF-8 becomes \ufffd.
func (e *encoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if plainASCII(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// floats and ints write a slice as json does: nil is null, empty is [].
func (e *encoder) floats(v []float64) {
	if v == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, f := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

func (e *encoder) ints(v []int) {
	if v == nil {
		e.raw("null")
		return
	}
	e.b = append(e.b, '[')
	for i, n := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.int(n)
	}
	e.b = append(e.b, ']')
}

// result and record write runner.Result and runner.EpochRecord, whose
// fields carry no tags: every field, in struct order, under its Go name.
func (e *encoder) result(r *runner.Result) {
	e.raw(`{"Mix":`)
	e.str(r.Mix)
	e.raw(`,"PolicyName":`)
	e.str(r.PolicyName)
	e.raw(`,"Cores":`)
	e.int(r.Cores)
	e.raw(`,"PeakW":`)
	e.float(r.PeakW)
	e.raw(`,"BudgetW":`)
	e.float(r.BudgetW)
	e.raw(`,"Epochs":`)
	if r.Epochs == nil {
		e.raw("null")
	} else {
		e.b = append(e.b, '[')
		for i := range r.Epochs {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.record(&r.Epochs[i])
		}
		e.b = append(e.b, ']')
	}
	e.raw(`,"TotalInstr":`)
	e.floats(r.TotalInstr)
	e.raw(`,"NsPerInstr":`)
	e.floats(r.NsPerInstr)
	e.raw(`,"TotalTimeNs":`)
	e.float(r.TotalTimeNs)
	e.raw(`}`)
}

func (e *encoder) record(r *runner.EpochRecord) {
	e.raw(`{"Epoch":`)
	e.int(r.Epoch)
	e.raw(`,"AvgPowerW":`)
	e.float(r.AvgPowerW)
	e.raw(`,"CoresW":`)
	e.float(r.CoresW)
	e.raw(`,"MemW":`)
	e.float(r.MemW)
	e.raw(`,"BudgetW":`)
	e.float(r.BudgetW)
	e.raw(`,"PeakW":`)
	e.float(r.PeakW)
	e.raw(`,"CoreSteps":`)
	e.ints(r.CoreSteps)
	e.raw(`,"MemStep":`)
	e.int(r.MemStep)
	e.raw(`,"Instr":`)
	e.floats(r.Instr)
	e.raw(`,"CoreW":`)
	e.floats(r.CoreW)
	e.raw(`,"PredictedPowerW":`)
	e.float(r.PredictedPowerW)
	e.raw(`,"RestPowerW":`)
	e.float(r.RestPowerW)
	e.raw(`,"PredictedRespNs":`)
	e.float(r.PredictedRespNs)
	e.raw(`,"MeasuredRespNs":`)
	e.float(r.MeasuredRespNs)
	e.raw(`}`)
}

// decodeStrict is the generic path and the only one that rejects:
// encoding/json with unknown fields disallowed, then nothing but
// whitespace up to the end of the frame.
func decodeStrict(data []byte) (Msg, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Msg
	if err := dec.Decode(&m); err != nil {
		return Msg{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	// One message per frame: trailing non-space bytes are framing bugs
	// (or smuggling attempts), not forward compatibility.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Msg{}, fmt.Errorf("%w: trailing data after message", ErrBadMessage)
	}
	return m, nil
}

// decodeCanonical decodes a grant, report or result frame in the exact
// shape AppendMsg writes: keys in struct order, each at most once,
// spelled as tagged, no whitespace, strings of plain ASCII without
// escapes, numbers in JSON grammar, the frame ending at its closing
// brace. For such a frame the value is the one decodeStrict yields.
// Any other input — another type, a null, an escape, a reordered,
// repeated or case-folded key, a number a Go field cannot hold — makes
// it report false, which decides nothing: the caller runs decodeStrict.
func decodeCanonical(data []byte) (Msg, bool) {
	d := decoder{data: data, ok: true}
	var m Msg
	switch {
	case d.lit(`{"type":"grant"`):
		m.Type = TypeGrant
	case d.lit(`{"type":"report"`):
		m.Type = TypeReport
	case d.lit(`{"type":"result"`):
		m.Type = TypeResult
	default:
		return Msg{}, false
	}
	if d.lit(`,"member":`) {
		m.Member = d.str()
	}
	if d.lit(`,"agent":`) {
		m.Agent = d.str()
	}
	if d.lit(`,"epoch":`) {
		m.Epoch = d.int()
	}
	if d.lit(`,"peak_w":`) {
		m.PeakW = d.float()
	}
	if d.lit(`,"weight":`) {
		m.Weight = d.float()
	}
	if d.lit(`,"floor_frac":`) {
		m.FloorFrac = d.float()
	}
	if d.lit(`,"total_epochs":`) {
		m.TotalEpochs = d.int()
	}
	if d.lit(`,"done_epochs":`) {
		m.DoneEpochs = d.int()
	}
	if d.lit(`,"target_bips":`) {
		m.TargetBIPS = d.float()
	}
	if d.lit(`,"epoch_ns":`) {
		m.EpochNs = d.float()
	}
	if d.lit(`,"grant_w":`) {
		m.GrantW = d.float()
	}
	if d.lit(`,"member_epoch":`) {
		m.MemberEpoch = d.int()
	}
	if d.lit(`,"power_w":`) {
		m.PowerW = d.float()
	}
	if d.lit(`,"throttle_frac":`) {
		m.ThrottleFrac = d.float()
	}
	if d.lit(`,"instr":`) {
		m.Instr = d.float()
	}
	if d.lit(`,"done":`) {
		switch {
		case d.lit("true"):
			m.Done = true
		case d.lit("false"):
		default:
			d.ok = false
		}
	}
	if d.lit(`,"result":`) {
		m.Result = d.result()
	}
	if d.lit(`,"err":`) {
		m.Err = d.str()
	}
	d.need(`}`)
	if !d.ok || d.pos != len(data) {
		return Msg{}, false
	}
	return m, true
}

// decoder walks data once. A shape it does not know clears ok; every
// method is then a no-op returning zero, so callers check ok once.
type decoder struct {
	data []byte
	pos  int
	ok   bool
}

// lit consumes s if it is next.
func (d *decoder) lit(s string) bool {
	if d.ok && len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

// need is lit for a token that must be next.
func (d *decoder) need(s string) {
	if !d.lit(s) {
		d.ok = false
	}
}

// str reads a quoted string of printable ASCII without escapes — bytes
// that decode to themselves.
func (d *decoder) str() string {
	if !d.lit(`"`) {
		d.ok = false
		return ""
	}
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := string(d.data[d.pos:i])
			d.pos = i + 1
			return s
		case c < 0x20 || c == '\\' || c >= utf8.RuneSelf:
			d.ok = false
			return ""
		}
	}
	d.ok = false
	return ""
}

// number consumes one JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
// strconv takes more than that grammar (hex, Inf, a leading +), which
// is why it is checked here first. What follows the number is the
// caller's to check, so "01" fails at the 1.
func (d *decoder) number() []byte {
	if !d.ok {
		return nil
	}
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		i = skipDigits(data, i)
	}
	if i >= 0 && i < len(data) && data[i] == '.' {
		i = skipDigits(data, i+1)
	}
	if i >= 0 && i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		i = skipDigits(data, i)
	}
	if i < 0 {
		d.ok = false
		return nil
	}
	tok := data[d.pos:i]
	d.pos = i
	return tok
}

// skipDigits returns the index after the run of digits at i, or -1 if
// there is none.
func skipDigits(data []byte, i int) int {
	j := i
	for j < len(data) && data[j]-'0' <= 9 {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

func (d *decoder) float() float64 {
	tok := d.number()
	if !d.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil { // out of range
		d.ok = false
		return 0
	}
	return f
}

func (d *decoder) int() int {
	tok := d.number()
	if !d.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil { // out of range, or 1.0 or 1e2, which are not ints to encoding/json
		d.ok = false
		return 0
	}
	return int(n)
}

// arrayLen consumes the opening bracket of a non-empty array of numbers
// and returns how many elements it has room for — one more than the
// commas before the closing bracket — so the slice is allocated once,
// at a size the bytes of this array pay for.
func (d *decoder) arrayLen() int {
	d.need("[")
	if !d.ok {
		return 0
	}
	end := bytes.IndexByte(d.data[d.pos:], ']')
	if end < 0 {
		d.ok = false
		return 0
	}
	return bytes.Count(d.data[d.pos:d.pos+end], []byte(",")) + 1
}

// floats and ints read null as a nil slice and [] as an empty one, as
// encoding/json does into a nil slice.
func (d *decoder) floats() []float64 {
	switch {
	case d.lit("null"):
		return nil
	case d.lit("[]"):
		return []float64{}
	}
	v := make([]float64, 0, d.arrayLen())
	for d.ok {
		v = append(v, d.float())
		if !d.lit(",") {
			break
		}
	}
	d.need("]")
	return v
}

func (d *decoder) ints() []int {
	switch {
	case d.lit("null"):
		return nil
	case d.lit("[]"):
		return []int{}
	}
	v := make([]int, 0, d.arrayLen())
	for d.ok {
		v = append(v, d.int())
		if !d.lit(",") {
			break
		}
	}
	d.need("]")
	return v
}

// recordKey opens every canonical EpochRecord; minRecordBytes is the
// length of the shortest one (all zeros, all nulls).
const (
	recordKey      = `{"Epoch":`
	minRecordBytes = len(`{"Epoch":0,"AvgPowerW":0,"CoresW":0,"MemW":0,"BudgetW":0,"PeakW":0,"CoreSteps":null,"MemStep":0,"Instr":null,"CoreW":null,"PredictedPowerW":0,"RestPowerW":0,"PredictedRespNs":0,"MeasuredRespNs":0}`)
)

func (d *decoder) result() *runner.Result {
	r := new(runner.Result)
	d.need(`{"Mix":`)
	r.Mix = d.str()
	d.need(`,"PolicyName":`)
	r.PolicyName = d.str()
	d.need(`,"Cores":`)
	r.Cores = d.int()
	d.need(`,"PeakW":`)
	r.PeakW = d.float()
	d.need(`,"BudgetW":`)
	r.BudgetW = d.float()
	d.need(`,"Epochs":`)
	switch {
	case d.lit("null"):
	case d.lit("[]"):
		r.Epochs = []runner.EpochRecord{}
	default:
		d.need("[")
		if !d.ok {
			return nil
		}
		// One allocation for the records: a canonical frame holds as
		// many as it has record openers, and no more than fit in it.
		rest := d.data[d.pos:]
		n := min(bytes.Count(rest, []byte(recordKey)), len(rest)/minRecordBytes+1)
		r.Epochs = make([]runner.EpochRecord, 0, n)
		for d.ok {
			r.Epochs = append(r.Epochs, runner.EpochRecord{})
			d.record(&r.Epochs[len(r.Epochs)-1])
			if !d.lit(",") {
				break
			}
		}
		d.need("]")
	}
	d.need(`,"TotalInstr":`)
	r.TotalInstr = d.floats()
	d.need(`,"NsPerInstr":`)
	r.NsPerInstr = d.floats()
	d.need(`,"TotalTimeNs":`)
	r.TotalTimeNs = d.float()
	d.need(`}`)
	return r
}

func (d *decoder) record(r *runner.EpochRecord) {
	d.need(recordKey)
	r.Epoch = d.int()
	d.need(`,"AvgPowerW":`)
	r.AvgPowerW = d.float()
	d.need(`,"CoresW":`)
	r.CoresW = d.float()
	d.need(`,"MemW":`)
	r.MemW = d.float()
	d.need(`,"BudgetW":`)
	r.BudgetW = d.float()
	d.need(`,"PeakW":`)
	r.PeakW = d.float()
	d.need(`,"CoreSteps":`)
	r.CoreSteps = d.ints()
	d.need(`,"MemStep":`)
	r.MemStep = d.int()
	d.need(`,"Instr":`)
	r.Instr = d.floats()
	d.need(`,"CoreW":`)
	r.CoreW = d.floats()
	d.need(`,"PredictedPowerW":`)
	r.PredictedPowerW = d.float()
	d.need(`,"RestPowerW":`)
	r.RestPowerW = d.float()
	d.need(`,"PredictedRespNs":`)
	r.PredictedRespNs = d.float()
	d.need(`,"MeasuredRespNs":`)
	r.MeasuredRespNs = d.float()
	d.need(`}`)
}
