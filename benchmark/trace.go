package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers are this repository's modules. A span belongs to the layer
// whose public function the benchmark called; spans inside the program
// are a later issue, so a layer that cannot be entered from outside
// (core under policy, engine/cpusim/memsim under sim) is charged to the
// layer that wraps it and measured on its own by the micro rows.
const (
	layerHarness = iota // the benchmark's own loop, between layer calls
	layerPolicy
	layerSim
	layerReplay
	layerRunner
	layerServe
	layerCluster
	layerDist
	numLayers
)

var layerNames = [numLayers]string{"harness", "policy", "sim", "replay", "runner", "serve", "cluster", "dist"}

// Span operations, one per call site the benchmark times.
const (
	opEpoch = iota // root: one epoch as the workload's caller sees it
	opStep         // runner.Session.Step
	opNewSession
	opRunProfile
	opApply
	opFinishEpoch
	opDecide
	opCreate
	opRetarget
	opStreamOpen
	opResult
	opDelete
	opAttach
	numOps
)

var opNames = [numOps]string{"epoch", "step", "new_session", "run_profile", "apply", "finish_epoch",
	"decide", "create", "retarget", "stream_open", "result", "delete", "attach"}

// span is one timed call: what ran, for whom, under which span. Times
// are nanoseconds since the tracer started.
type span struct {
	Layer uint8
	Op    uint8
	// Parent is the index of the enclosing span in the same buffer, -1
	// for a root, or mainRef(i) for span i of the tracer's main buffer.
	Parent int32
	ID     int32 // session, tenant or member the call belongs to
	Start  int64
	End    int64
}

// mainRef encodes main-buffer index i as a Parent value of a span kept
// in a session's own buffer; it is its own inverse.
func mainRef(i int32) int32 { return -2 - i }

// spanBuf is an append-only span list written by one goroutine at a
// time, so it needs no lock. It grows by fixed chunks, never copying: a
// fleet pass records millions of spans, and a doubling slice would
// spend more on moving them than on taking them. Spans are plain values
// without pointers: the garbage collector never scans them.
type spanBuf struct {
	t0     time.Time
	chunks [][]span
	n      int32
}

const (
	chunkShift = 12
	chunkSpans = 1 << chunkShift
)

func (b *spanBuf) at(i int32) *span { return &b.chunks[i>>chunkShift][i&(chunkSpans-1)] }

// begin opens a span and returns its index in the buffer.
func (b *spanBuf) begin(layer, op uint8, parent, id int32) int32 {
	i := b.n
	if int(i>>chunkShift) == len(b.chunks) {
		b.chunks = append(b.chunks, make([]span, chunkSpans))
	}
	b.n++
	now := int64(time.Since(b.t0))
	*b.at(i) = span{Layer: layer, Op: op, Parent: parent, ID: id, Start: now, End: now}
	return i
}

// end closes span i.
func (b *spanBuf) end(i int32) { b.at(i).End = int64(time.Since(b.t0)) }

// drain calls f for every span, in order, and lets go of each chunk as
// it is done with: a fleet pass holds 200 MB of spans, and the caller is
// copying them.
func (b *spanBuf) drain(f func(span)) {
	for c, chunk := range b.chunks {
		for i := 0; i < chunkSpans && int32(c*chunkSpans+i) < b.n; i++ {
			f(chunk[i])
		}
		b.chunks[c] = nil
	}
	b.chunks, b.n = nil, 0
}

// tracer keeps every span of a traced pass in memory. The workload's
// own goroutines write the main buffer under the lock; every probed
// session writes a buffer of its own — a session is stepped by one
// goroutine at a time, and a lock shared by a coordinator's parallel
// member steps would cost more than the steps.
type tracer struct {
	mu   sync.Mutex
	main spanBuf
	bufs []*spanBuf

	// root is the epoch span (a main-buffer index) currently open on a
	// single-driver workload — a coordinator stepping its members: the
	// members' step spans take it as their parent.
	root atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{main: spanBuf{t0: time.Now()}}
	t.root.Store(-1)
	return t
}

// begin opens a span in the main buffer and returns its index.
func (t *tracer) begin(layer, op uint8, parent, id int32) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.main.begin(layer, op, parent, id)
}

// end closes main-buffer span i.
func (t *tracer) end(i int32) {
	t.mu.Lock()
	t.main.end(i)
	t.mu.Unlock()
}

// buffer returns a new session buffer on the tracer's clock.
func (t *tracer) buffer() *spanBuf {
	b := &spanBuf{t0: t.main.t0}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// all returns every span recorded, session buffers appended to the main
// one and their parent references rewritten to indexes into the result.
// Call it once, after the pass, when nothing writes any more: it empties
// the buffers.
func (t *tracer) all() []span {
	total := t.main.n
	for _, b := range t.bufs {
		total += b.n
	}
	out := make([]span, 0, total)
	t.main.drain(func(s span) { out = append(out, s) })
	for _, b := range t.bufs {
		off := int32(len(out))
		b.drain(func(s span) {
			switch {
			case s.Parent >= 0:
				s.Parent += off
			case s.Parent < -1:
				s.Parent = mainRef(s.Parent)
			}
			out = append(out, s)
		})
	}
	return out
}

// ledger is the self time of every layer, in nanoseconds, over a set of
// root spans; Wall is the roots' total duration and equals the sum of
// Self by construction.
type ledger struct {
	Self [numLayers]float64
	// SelfOp splits Self by operation; Dur and Count are the plain
	// duration and number of each layer's operations, whatever overlapped
	// them.
	SelfOp [numLayers][numOps]float64
	Dur    [numLayers][numOps]float64
	Count  [numLayers][numOps]int
	Wall   float64
	Roots  int
}

// self adds ns of self time to a span's layer and operation.
func (lg *ledger) self(s span, ns float64) {
	lg.Self[s.Layer] += ns
	lg.SelfOp[s.Layer][s.Op] += ns
}

// covered returns the length of the union of the intervals, each
// clipped to [lo, hi]. It sorts ivs in place.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	for i := range ivs {
		if ivs[i][0] < lo {
			ivs[i][0] = lo
		}
		if ivs[i][1] > hi {
			ivs[i][1] = hi
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum int64
	end := lo
	for _, iv := range ivs {
		if iv[1] <= end {
			continue
		}
		s := iv[0]
		if s < end {
			s = end
		}
		sum += iv[1] - s
		end = iv[1]
	}
	return sum
}

// buildLedger attributes the duration of every root span to layers. A
// span's self time is its duration minus the part of it its children
// cover (children clipped to the parent, overlaps counted once). The
// covered part is handed down to the children in proportion to their
// own breakdowns, scaled so that children running in parallel on a
// worker pool share the wall time they covered rather than each
// claiming all of it — which is what makes the ledger sum to the epoch
// wall time at any worker count.
func buildLedger(spans []span) ledger {
	n := len(spans)
	// Children lists by counting sort on the parent index.
	start := make([]int32, n+1)
	for _, s := range spans {
		if s.Parent >= 0 {
			start[s.Parent+1]++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	kids := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[fill[s.Parent]] = int32(i)
			fill[s.Parent]++
		}
	}

	var lg ledger
	var ivs [][2]int64
	var walk func(i int32, scale float64)
	walk = func(i int32, scale float64) {
		s := spans[i]
		dur := s.End - s.Start
		lg.Dur[s.Layer][s.Op] += float64(dur)
		lg.Count[s.Layer][s.Op]++
		ch := kids[start[i]:start[i+1]]
		if len(ch) == 0 || dur <= 0 {
			lg.self(s, scale*float64(dur))
			return
		}
		ivs = ivs[:0]
		var sumDur int64
		for _, c := range ch {
			cs := spans[c]
			ivs = append(ivs, [2]int64{cs.Start, cs.End})
			lo, hi := cs.Start, cs.End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				sumDur += hi - lo
			}
		}
		cov := covered(ivs, s.Start, s.End)
		lg.self(s, scale*float64(dur-cov))
		if sumDur == 0 {
			return
		}
		// Children are charged their clipped duration, scaled down when
		// they overlapped.
		share := scale * float64(cov) / float64(sumDur)
		for _, c := range ch {
			cs := spans[c]
			lo, hi := cs.Start, cs.End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi <= lo {
				continue
			}
			full := cs.End - cs.Start
			walk(c, share*float64(hi-lo)/float64(full))
		}
	}
	for i, s := range spans {
		if s.Parent < 0 {
			lg.Wall += float64(s.End - s.Start)
			lg.Roots++
			walk(int32(i), 1)
		}
	}
	return lg
}

// traceFileSpans bounds the trace file: a fleet workload records
// millions of spans, and the first ones show the structure.
const traceFileSpans = 50000

type traceSpanJSON struct {
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Parent int32  `json:"parent"`
	ID     int32  `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeTrace writes the first traceFileSpans spans and the ledger of
// all of them.
func writeTrace(path, workload string, spans []span, lg ledger) error {
	out := struct {
		Workload string             `json:"workload"`
		Spans    int                `json:"spans_recorded"`
		SelfNs   map[string]float64 `json:"self_ns_by_layer"`
		WallNs   float64            `json:"root_wall_ns"`
		Roots    int                `json:"roots"`
		First    []traceSpanJSON    `json:"first_spans"`
	}{Workload: workload, Spans: len(spans), SelfNs: map[string]float64{}, WallNs: lg.Wall, Roots: lg.Roots}
	for l, v := range lg.Self {
		out.SelfNs[layerNames[l]] = v
	}
	k := len(spans)
	if k > traceFileSpans {
		k = traceFileSpans
	}
	for _, s := range spans[:k] {
		out.First = append(out.First, traceSpanJSON{layerNames[s.Layer], opNames[s.Op], s.Parent, s.ID, s.Start, s.End})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
