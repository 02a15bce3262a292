// Package simcore provides the discrete-event machinery underneath the
// cluster simulator: a zero-allocation event queue with a deterministic
// tie-break order, a simulated clock, and busy-server resources.
//
// There is one ordering structure: a value-typed 4-ary min-heap of small
// (time, seq, ref) keys. Events at equal times fire in scheduling order
// (seq), which keeps runs deterministic. What a key refers to is one of two
// things:
//
//   - a lane: the FIFO ring of events owned by one Resource. A resource
//     serves its work strictly in order, so the completions it schedules
//     are already sorted by (time, seq); only the head of a non-empty lane
//     has a key in the heap. Scheduling onto a non-empty lane is a ring
//     append, and firing a lane head replaces the root key with the lane's
//     next head instead of a remove and a push.
//   - a slab slot: the free-listed body of a lane-less event (Call,
//     CallAfter) — anything not produced by a resource.
//
// Every event draws its seq from the one counter and the heap compares the
// same (time, seq) keys whichever kind they refer to, so the firing order is
// exactly that of a single heap holding every event. Steady-state
// scheduling and stepping touches only the heap slice, the rings and the
// slab, so it performs zero heap allocations per event once the engine has
// warmed up to its peak queue depth.
package simcore

import (
	"phttp/internal/core"
)

// Action is a closure-free event callback: obj is an arbitrary pointer
// payload and a, b are small integer arguments (a phase code, a node index —
// whatever the caller encodes). Using a package-level function or a method
// expression as an Action allocates nothing at schedule time, unlike a
// closure.
type Action func(obj any, a, b int64)

// heapKey is one 4-ary heap element: the ordering key plus what it refers
// to — a slab slot when ref >= 0, the head of lane ^ref when ref < 0.
// Keeping the key small makes sift swaps cheap.
type heapKey struct {
	at  core.Micros
	seq uint64
	ref int32
}

// body is the out-of-line payload of a lane-less event. next links free
// slots.
type body struct {
	action Action
	obj    any
	a, b   int64
	next   int32
}

const noSlot int32 = -1

// event is one lane entry: the ordering key and the payload together, so a
// laned event needs no slab slot.
type event struct {
	at     core.Micros
	seq    uint64
	action Action
	obj    any
	a, b   int64
}

// lane is a growable ring of events in (at, seq) order. len(ring) is zero
// or a power of two.
type lane struct {
	ring []event
	head int // index of the oldest event
	n    int // events held
}

// minLaneCap is a lane ring's first capacity.
const minLaneCap = 16

// Engine owns the clock, the heap, the lanes and the body slab.
type Engine struct {
	now    core.Micros
	seq    uint64
	keys   []heapKey
	bodies []body
	free   int32
	// lanes[:nlanes] are bound to resources; the rest keep their ring
	// capacity from before the last Reset for the next resources bound.
	lanes    []lane
	nlanes   int
	peakKeys int
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{free: noSlot}
}

// Reset returns the engine to its initial state — clock at zero, nothing
// pending, no resource bound — while keeping the heap, body-slab and
// lane-ring capacity, so a sweep worker can reuse one engine's arenas
// across grid points instead of regrowing them from zero on every run.
// Payload references in the retained slab and rings are dropped. A reset
// engine is observably identical to a fresh one, which keeps reused-engine
// runs byte-identical to fresh-engine runs. Resources made before the
// Reset must not be used after it.
func (e *Engine) Reset() {
	clear(e.bodies)
	e.keys = e.keys[:0]
	e.bodies = e.bodies[:0]
	e.free = noSlot
	for i := range e.lanes[:e.nlanes] {
		l := &e.lanes[i]
		clear(l.ring)
		l.head, l.n = 0, 0
	}
	e.nlanes = 0
	e.peakKeys = 0
	e.now = 0
	e.seq = 0
}

// Now returns the current simulated time.
func (e *Engine) Now() core.Micros { return e.now }

// Pending returns the number of scheduled events, in lanes or not.
func (e *Engine) Pending() int {
	n := len(e.keys)
	for i := range e.lanes[:e.nlanes] {
		if w := e.lanes[i].n; w > 1 {
			n += w - 1 // the head is already counted by its key
		}
	}
	return n
}

// PeakHeap returns the largest number of keys the heap has held since the
// engine was made or Reset: the lane-less events plus the non-empty lanes
// pending at one moment.
func (e *Engine) PeakHeap() int { return e.peakKeys }

// alloc acquires a body slot from the free list, growing the slab only when
// the queue exceeds its historical peak depth.
//
//phttp:hotpath
func (e *Engine) alloc() int32 {
	if e.free == noSlot {
		e.bodies = append(e.bodies, body{})
		return int32(len(e.bodies) - 1)
	}
	s := e.free
	e.free = e.bodies[s].next
	return s
}

// push adds a key to the heap.
//
//phttp:hotpath
func (e *Engine) push(k heapKey) {
	e.keys = append(e.keys, k)
	if len(e.keys) > e.peakKeys {
		e.peakKeys = len(e.keys)
	}
	e.siftUp(len(e.keys) - 1)
}

func (k heapKey) less(o heapKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

//phttp:hotpath
func (e *Engine) siftUp(i int) {
	keys := e.keys
	k := keys[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !k.less(keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
}

//phttp:hotpath
func (e *Engine) siftDown(i int) {
	keys := e.keys
	n := len(keys)
	k := keys[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if keys[c].less(keys[min]) {
				min = c
			}
		}
		if !keys[min].less(k) {
			break
		}
		keys[i] = keys[min]
		i = min
	}
	keys[i] = k
}

// popRoot removes the heap's first key.
//
//phttp:hotpath
func (e *Engine) popRoot() {
	n := len(e.keys) - 1
	e.keys[0] = e.keys[n]
	e.keys = e.keys[:n]
	if n > 1 {
		e.siftDown(0)
	}
}

// Call schedules the lane-less event act(obj, a, b) at absolute time t.
// Scheduling in the past panics: that is always a modelling bug, not a
// recoverable condition.
//
//phttp:hotpath
func (e *Engine) Call(t core.Micros, act Action, obj any, a, b int64) {
	if act == nil {
		panic("simcore: Call with nil Action")
	}
	if t < e.now {
		panic("simcore: event scheduled in the past")
	}
	s := e.alloc()
	bd := &e.bodies[s]
	bd.action, bd.obj, bd.a, bd.b, bd.next = act, obj, a, b, noSlot
	e.seq++
	e.push(heapKey{at: t, seq: e.seq, ref: s})
}

// CallAfter schedules act(obj, a, b) to run d after the current time.
//
//phttp:hotpath
func (e *Engine) CallAfter(d core.Micros, act Action, obj any, a, b int64) {
	e.Call(e.now+d, act, obj, a, b)
}

// enqueue appends act(obj, a, b) at time t to lane li. The caller — a
// Resource, whose completion times never decrease — guarantees t is no
// earlier than the lane's last event; only a lane that was empty gains a
// key in the heap.
//
//phttp:hotpath
func (e *Engine) enqueue(li int32, t core.Micros, act Action, obj any, a, b int64) {
	if act == nil {
		panic("simcore: Call with nil Action")
	}
	l := &e.lanes[li]
	if l.n == len(l.ring) {
		l.grow()
	}
	e.seq++
	// Stored field by field: an event{...} literal is assembled on the stack
	// and then copied with wider loads than the stores that wrote it, which
	// stalls on every event (measured: this function 13 % of a sweep, 5 %
	// so).
	ev := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	ev.at, ev.seq, ev.action, ev.obj, ev.a, ev.b = t, e.seq, act, obj, a, b
	l.n++
	if l.n == 1 {
		e.push(heapKey{at: t, seq: e.seq, ref: ^li})
	}
}

// grow doubles the ring, moving the held events to its start in order.
func (l *lane) grow() {
	size := 2 * len(l.ring)
	if size == 0 {
		size = minLaneCap
	}
	ring := make([]event, size)
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// Step runs the earliest pending event, advancing the clock. It reports
// whether an event ran.
//
//phttp:hotpath
func (e *Engine) Step() bool {
	if len(e.keys) == 0 {
		return false
	}
	top := e.keys[0]
	var (
		act  Action
		obj  any
		a, b int64
	)
	// Copy the payload out and release its place before dispatching,
	// clearing the reference so neither the slab nor a ring retains a dead
	// payload; the callback may schedule new events into the freed place.
	if top.ref >= 0 {
		e.popRoot()
		bd := &e.bodies[top.ref]
		act, obj, a, b = bd.action, bd.obj, bd.a, bd.b
		*bd = body{next: e.free}
		e.free = top.ref
	} else {
		l := &e.lanes[^top.ref]
		ev := &l.ring[l.head]
		act, obj, a, b = ev.action, ev.obj, ev.a, ev.b
		ev.obj = nil
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		if l.n > 0 {
			// The lane's next event takes the root's place: one sift over
			// the few keys there are, in place of a remove and a push.
			next := &l.ring[l.head]
			e.keys[0] = heapKey{at: next.at, seq: next.seq, ref: top.ref}
			e.siftDown(0)
		} else {
			e.popRoot()
		}
	}
	e.now = top.at
	act(obj, a, b)
	return true
}

// Run processes events until the queue drains or the event budget is
// exhausted, returning the number of events processed. A budget of 0 means
// unlimited.
func (e *Engine) Run(budget int) int {
	n := 0
	for e.Step() {
		n++
		if budget > 0 && n >= budget {
			break
		}
	}
	return n
}

// Resource models a serially shared device (a CPU or a disk) with FIFO
// service: work scheduled on it starts at max(now, busyUntil) and occupies
// the device for its cost. Busy time is accumulated for utilization
// reporting. A resource owns one lane of its engine; do not copy it after
// first use.
type Resource struct {
	eng       *Engine
	lane      int32
	busyUntil core.Micros
	busyTotal core.Micros
	queued    int
}

// NewResource returns an idle resource bound to a lane of e. After a Reset
// the lanes are handed out again in the same order, each with the ring
// capacity it had grown to.
func (e *Engine) NewResource() Resource {
	if e.nlanes == len(e.lanes) {
		e.lanes = append(e.lanes, lane{})
	}
	e.nlanes++
	return Resource{eng: e, lane: int32(e.nlanes - 1)}
}

// Call reserves the resource for cost, starting no earlier than now, and
// schedules act(obj, a, b) at the completion time, which it returns. The
// work counts as queued until the handler calls Release.
//
//phttp:hotpath
func (r *Resource) Call(cost core.Micros, act Action, obj any, a, b int64) core.Micros {
	if cost < 0 {
		panic("simcore: negative cost")
	}
	e := r.eng
	start := r.busyUntil
	if e.now > start {
		start = e.now
	}
	done := start + cost
	r.busyUntil = done
	r.busyTotal += cost
	r.queued++
	e.enqueue(r.lane, done, act, obj, a, b)
	return done
}

// Release records the completion of one scheduled unit of work.
//
//phttp:hotpath
func (r *Resource) Release() {
	r.queued--
	if r.queued < 0 {
		panic("simcore: resource released more than scheduled")
	}
}

// Queued returns the number of in-flight work items (scheduled, not yet
// released). The extended LARD disk heuristic consumes this for disks.
func (r *Resource) Queued() int { return r.queued }

// BusyUntil returns the time the resource drains if no more work arrives.
func (r *Resource) BusyUntil() core.Micros { return r.busyUntil }

// BusyTotal returns the accumulated busy time.
func (r *Resource) BusyTotal() core.Micros { return r.busyTotal }

// Utilization returns busy time divided by elapsed time (0 if none elapsed).
func (r *Resource) Utilization(elapsed core.Micros) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.busyTotal) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
