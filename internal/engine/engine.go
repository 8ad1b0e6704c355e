// Package engine provides the discrete-event scheduler underlying the
// many-core system simulator. Time is a float64 in nanoseconds. Events
// scheduled for the same instant fire in FIFO order, which keeps the
// simulation deterministic for a fixed seed.
//
// Events are scheduled through Timer, an intrusive, reusable event
// owned by the caller: its event slot and callback are allocated once,
// and Reset re-arms it with no allocation at all. The simulated cores
// and memory controllers schedule exclusively through Timers, which is
// what makes the steady-state event path allocation-free.
//
// The queue is a timing wheel, not a heap: simulated hardware schedules
// overwhelmingly at small constant delays (bus bursts, cache hits, DRAM
// timing parameters), so events cluster tightly around the cursor.
// Time is split into fixed-width buckets; pushing insertion-sorts into
// the target bucket (buckets hold a handful of entries, so the sort is
// a shift of one or two 24-byte records), popping advances a cursor and
// takes the head of the current bucket, and cancellation is O(1): a
// cancelled or re-keyed slot simply no longer matches its bucket entry,
// which is dropped when the head reaches it. Events beyond the wheel
// horizon sit in a small overflow min-heap and migrate into the wheel
// as the cursor approaches. Firing is lazy: the winner's slot stays
// armed while its callback runs, so the common fire-then-re-arm cycle
// costs one bucket insert and no other queue maintenance. Bucket order
// is exact — entries dispatch in (at, seq) order within a bucket and
// buckets partition time monotonically — so the firing order is the
// same total order a heap would produce. Pops that share one timestamp
// are batched: ties are adjacent in a sorted bucket, so the whole run
// is parked once and drained in sequence order without touching the
// bucket between callbacks.
package engine

import (
	"math"
	"math/bits"
)

const (
	// noRef marks "no event slot" (e.g. nothing currently firing).
	noRef = -1

	// bShift sets the bucket width to 8 ns (at >> bShift buckets), a
	// little above the common DRAM/bus delays so steady-state buckets
	// hold only a few events.
	bShift   = 3
	wBits    = 8
	nBuckets = 1 << wBits // 256 buckets = 2048 ns horizon
	wMask    = nBuckets - 1

	// bucketCap is the per-bucket capacity carved from the shared
	// backing arena at construction; a bucket that ever overflows it
	// migrates to its own heap-allocated slice and keeps the larger
	// capacity from then on.
	bucketCap = 4

	// farIdle is the cached horizon sentinel when the far heap is empty.
	farIdle = ^uint64(0)
)

var posInf = math.Inf(1)

// ev is one scheduled occurrence of a slot. The entry is live iff the
// slot's current key sequence still equals seq; a cancelled or re-keyed
// slot leaves a stale entry that is discarded when it reaches the head
// of its bucket. The timestamp is stored in the entry (immutable, so
// the bucket's sorted order survives re-keying); only the staleness
// check reads the slot key.
type ev struct {
	at  float64
	seq uint64
	ref int32
}

// key is a slot's current armed key: timestamp (+Inf when idle) and the
// unique sequence number of the arm. Kept as one 16-byte record so the
// validity check and the timestamp land on the same cache line.
type key struct {
	at  float64
	seq uint64
}

// Engine is a single-threaded discrete-event simulator loop.
type Engine struct {
	now float64
	seq uint64
	cur uint64 // absolute bucket number of the wheel cursor

	// wheel[b & wMask] holds the events of absolute bucket b for
	// b in [cur, cur+nBuckets); all other events live in the far heap.
	// hd[i] is bucket i's head offset: entries before it are consumed
	// and reclaimed wholesale when the bucket drains, so a pop is an
	// index bump instead of a shift. occ is the wheel's occupancy
	// bitmap (bit i = bucket i non-empty): steady-state event spacing
	// is many buckets, and the bitmap turns the cursor's walk across
	// empty buckets into one trailing-zeros scan instead of a bucket
	// probe per step.
	wheel [nBuckets][]ev
	hd    [nBuckets]int32
	occ   [nBuckets / 64]uint64

	// Overflow min-heap (binary, keyed by (at, seq)) for events beyond
	// the wheel horizon. Entries may be stale; they are dropped when
	// popped. farMin caches the root's absolute bucket (farIdle when
	// empty) so the pop loop's horizon check is one integer compare.
	farAt  []float64
	farSeq []uint64
	farRef []int32
	farMin uint64

	// Per-slot state, indexed by ref (one slot per Timer): armed key and
	// callback.
	keys []key
	fns  []func()

	// Batched same-timestamp pops: when the popped head has ties, the
	// rest of the run moves here and drains in seq order (revalidated
	// per entry) before the bucket is touched again.
	bat    []ev
	batPos int

	live   int   // armed slots, including a lazily-popped firing slot
	firing int32 // slot whose callback is running, not yet settled
}

// New returns an engine positioned at time zero.
func New() *Engine {
	e := &Engine{firing: noRef, farMin: farIdle}
	backing := make([]ev, nBuckets*bucketCap)
	for i := range e.wheel {
		e.wheel[i] = backing[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return e
}

// Now returns the current simulation time in nanoseconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int {
	if e.firing >= 0 {
		return e.live - 1
	}
	return e.live
}

// enqueue files entry (at, seq, ref) into its wheel bucket, keeping the
// bucket sorted by (at, seq), or into the far heap when it lies beyond
// the horizon. A fresh entry carries the largest seq issued so far, so
// it sorts after every equal-timestamp entry already present and the
// insertion scan compares timestamps alone.
func (e *Engine) enqueue(at float64, seq uint64, ref int32) {
	b := uint64(at) >> bShift
	if b < e.cur {
		b = e.cur // defensive: never file behind the cursor
	} else if b >= e.cur+nBuckets {
		e.farPush(at, seq, ref)
		return
	}
	i := b & wMask
	w := append(e.wheel[i], ev{at, seq, ref})
	lo := int(e.hd[i])
	p := len(w) - 1
	for p > lo && w[p-1].at > at {
		w[p] = w[p-1]
		p--
	}
	w[p] = ev{at, seq, ref}
	e.wheel[i] = w
	e.occ[i>>6] |= 1 << (i & 63)
}

// settle finalizes a lazily-popped firing slot whose callback did not
// re-arm it: the slot goes idle. Its bucket entry was already removed
// by the pop, so this is O(1).
func (e *Engine) settle() {
	if r := e.firing; r >= 0 {
		e.firing = noRef
		e.keys[r].at = posInf
		e.live--
	}
}

// arm schedules slot ref at (at, seq). A pending slot's previous entry
// goes stale by sequence mismatch; arming the currently-firing slot
// keeps its live accounting.
func (e *Engine) arm(ref int32, at float64, seq uint64) {
	if ref == e.firing {
		e.firing = noRef // still counted live; old entry already popped
	} else {
		e.settle()
		if e.keys[ref].at == posInf {
			e.live++
		}
	}
	e.keys[ref] = key{at, seq}
	e.enqueue(at, seq, ref)
}

// Timer is a reusable scheduled callback. The callback is fixed at
// construction; Reset re-arms the timer (rescheduling it if already
// pending) without allocating. A Timer belongs to exactly one Engine.
type Timer struct {
	e   *Engine
	ref int32
}

// NewTimer creates an idle timer that will run fn when it fires. Arm it
// with Reset.
func (e *Engine) NewTimer(fn func()) *Timer {
	ref := int32(len(e.fns))
	e.keys = append(e.keys, key{at: posInf})
	e.fns = append(e.fns, fn)
	return &Timer{e: e, ref: ref}
}

// Reset arms the timer to fire delay nanoseconds from now, rescheduling
// it if it is already pending. Negative or NaN delays are treated as
// zero. A Reset at the current instant fires after all previously
// queued events for that instant (fresh FIFO sequence).
func (t *Timer) Reset(delay float64) {
	e := t.e
	if !(delay > 0) {
		delay = 0
	}
	seq := e.seq
	e.seq++
	e.arm(t.ref, e.now+delay, seq)
}

// Pending reports whether the timer is currently scheduled.
func (t *Timer) Pending() bool {
	return t.ref != t.e.firing && t.e.keys[t.ref].at != posInf
}

// popBucket statuses.
const (
	popFound  = iota // the bucket's (at, seq) minimum was ≤ tmax: popped
	popBeyond        // the minimum is beyond tmax: nothing to fire at all
	popEmpty         // no live entries in this bucket: advance the cursor
)

// popBucket takes the head of wheel bucket i — the bucket is sorted by
// (at, seq), and buckets partition time, so a live head is the global
// minimum of all events at or after the cursor. Stale entries are
// dropped as the head reaches them. When following entries tie the
// head's timestamp they are adjacent (sorted, and equal-at order is seq
// order); the whole run is parked in the batch buffer so the caller
// drains it in seq order without touching the bucket between callbacks.
func (e *Engine) popBucket(i uint64, tmax float64) (int32, float64, int) {
	b := e.wheel[i]
	j := int(e.hd[i])
	for j < len(b) && e.keys[b[j].ref].seq != b[j].seq {
		j++
	}
	if j == len(b) {
		e.wheel[i] = b[:0]
		e.hd[i] = 0
		e.occ[i>>6] &^= 1 << (i & 63)
		return 0, 0, popEmpty
	}
	en := b[j]
	if en.at > tmax {
		e.hd[i] = int32(j)
		return 0, 0, popBeyond
	}
	k := j + 1
	for k < len(b) && b[k].at == en.at {
		k++
	}
	if k > j+1 {
		// Park the rest of the same-timestamp run (already in seq
		// order); stale members are revalidated away at drain time.
		e.bat = append(e.bat[:0], b[j+1:k]...)
		e.batPos = 0
	}
	if k == len(b) {
		e.wheel[i] = b[:0]
		e.hd[i] = 0
		e.occ[i>>6] &^= 1 << (i & 63)
	} else {
		e.hd[i] = int32(k)
	}
	return en.ref, en.at, popFound
}

// pop removes and returns the earliest event with at ≤ tmax, advancing
// the cursor and migrating far events as their buckets enter the
// horizon. The caller must have settled any firing slot and checked
// live > 0 (which guarantees termination: a live entry exists in the
// wheel, the far heap, or the batch buffer).
func (e *Engine) pop(tmax float64) (int32, float64, bool) {
	// Drain a parked same-timestamp batch first; entries are revalidated
	// because a callback may have cancelled or re-armed a later member.
	for e.batPos < len(e.bat) {
		en := e.bat[e.batPos]
		e.batPos++
		if e.keys[en.ref].seq == en.seq {
			return en.ref, en.at, true
		}
	}
	btMax := ^uint64(0)
	if tmax < math.MaxUint64 {
		btMax = uint64(tmax) >> bShift
	}
	for {
		for e.farMin < e.cur+nBuckets {
			e.farMigrate()
		}
		b, ok := e.nextOccupied()
		if !ok {
			// Wheel empty. Jump the cursor so the far heap's minimum
			// enters the horizon (live > 0 guarantees it exists unless
			// everything left is beyond tmax).
			if e.farMin == farIdle || e.farMin > btMax {
				return 0, 0, false
			}
			e.cur = e.farMin - nBuckets + 1
			continue
		}
		if b > btMax {
			return 0, 0, false
		}
		e.cur = b
		ref, at, st := e.popBucket(b&wMask, tmax)
		if st == popFound {
			return ref, at, true
		}
		if st == popBeyond {
			return 0, 0, false
		}
		// popEmpty: the bucket held only stale entries; its bit is
		// cleared, scan on.
	}
}

// nextOccupied returns the absolute bucket number of the first
// non-empty wheel bucket at or after the cursor, scanning the occupancy
// bitmap in window order (bit positions wrap modulo the wheel size).
func (e *Engine) nextOccupied() (uint64, bool) {
	start := uint(e.cur & wMask)
	w := int(start >> 6)
	word := e.occ[w] &^ (1<<(start&63) - 1) // drop bits below the cursor
	for k := 0; ; k++ {
		if word != 0 {
			i := uint64(w)<<6 + uint64(bits.TrailingZeros64(word))
			off := (i - uint64(start)) & wMask
			return e.cur + off, true
		}
		if k == len(e.occ) {
			return 0, false
		}
		w++
		if w == len(e.occ) {
			w = 0
		}
		word = e.occ[w]
	}
}

// RunUntil fires every event scheduled at or before t in timestamp
// order (FIFO within an instant) and then advances the clock to exactly
// t. Events created while running are honoured if they fall within the
// horizon. Fired slots are left lazily armed: either the callback
// re-arms the slot (one enqueue) or the next queue operation settles
// it.
func (e *Engine) RunUntil(t float64) {
	if math.IsNaN(t) || t < e.now {
		return
	}
	for {
		e.settle()
		if e.live == 0 {
			break
		}
		w, at, ok := e.pop(t)
		if !ok {
			break
		}
		e.now = at
		e.firing = w
		e.fns[w]()
	}
	// Everything at or before t has fired, so no bucket behind t's can
	// hold a live entry; snapping the cursor keeps later pushes cheap
	// after long idle gaps. (Parked batch entries, if any, are stale —
	// live ones are always drained before the loop exits.)
	if bt := uint64(t) >> bShift; t < math.MaxUint64 && bt > e.cur {
		e.cur = bt
	}
	e.now = t
}

// Step fires the single earliest event, returning false if none remain.
func (e *Engine) Step() bool {
	e.settle()
	if e.live == 0 {
		return false
	}
	w, at, ok := e.pop(math.Inf(1))
	if !ok {
		return false
	}
	e.now = at
	e.firing = w
	e.fns[w]()
	e.settle()
	return true
}

// farPush inserts an entry into the overflow min-heap.
func (e *Engine) farPush(at float64, seq uint64, ref int32) {
	e.farAt = append(e.farAt, at)
	e.farSeq = append(e.farSeq, seq)
	e.farRef = append(e.farRef, ref)
	i := len(e.farAt) - 1
	for i > 0 {
		p := (i - 1) >> 1
		if !(at < e.farAt[p] || (at == e.farAt[p] && seq < e.farSeq[p])) {
			break
		}
		e.farAt[i], e.farSeq[i], e.farRef[i] = e.farAt[p], e.farSeq[p], e.farRef[p]
		i = p
	}
	e.farAt[i], e.farSeq[i], e.farRef[i] = at, seq, ref
	e.farMin = uint64(e.farAt[0]) >> bShift
}

// farMigrate pops the overflow minimum and, if still live, files it
// into the wheel (its bucket has entered the horizon).
func (e *Engine) farMigrate() {
	at, seq, ref := e.farAt[0], e.farSeq[0], e.farRef[0]
	n := len(e.farAt) - 1
	la, ls, lr := e.farAt[n], e.farSeq[n], e.farRef[n]
	e.farAt = e.farAt[:n]
	e.farSeq = e.farSeq[:n]
	e.farRef = e.farRef[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && (e.farAt[c+1] < e.farAt[c] ||
				(e.farAt[c+1] == e.farAt[c] && e.farSeq[c+1] < e.farSeq[c])) {
				c++
			}
			if !(e.farAt[c] < la || (e.farAt[c] == la && e.farSeq[c] < ls)) {
				break
			}
			e.farAt[i], e.farSeq[i], e.farRef[i] = e.farAt[c], e.farSeq[c], e.farRef[c]
			i = c
		}
		e.farAt[i], e.farSeq[i], e.farRef[i] = la, ls, lr
		e.farMin = uint64(e.farAt[0]) >> bShift
	} else {
		e.farMin = farIdle
	}
	if k := e.keys[ref]; k.at == at && k.seq == seq {
		e.enqueue(at, seq, ref)
	}
}
