package core

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// TargetID is a dense integer name for a Target. The interner assigns IDs
// starting at 1; NoTarget (0) marks a request whose target has not been
// interned yet. Dense IDs let the per-event paths of the simulator and the
// policies index slices instead of hashing target strings: a cache lookup is
// an array load, a mapping update touches no map.
type TargetID int32

// NoTarget is the zero value of TargetID: "not interned". Constructors that
// build Requests from raw strings (trace parsing, the prototype protocol)
// leave the ID at NoTarget; the HTTP parser or the trace loader interns
// before any policy or cache sees the request. A capped interner also
// answers NoTarget for a new target once its table is full: such a request
// is placed by load alone and leaves no mapping entry behind.
const NoTarget TargetID = 0

// Name arena chunking: names live in fixed-size chunks reached through an
// atomically published chunk directory, so a lock-free Name never sees a
// chunk move under it while the table grows.
const (
	nameChunkBits = 10
	nameChunkSize = 1 << nameChunkBits
	nameChunkMask = nameChunkSize - 1
)

type nameChunk [nameChunkSize]Target

// Interner maps Target strings to dense TargetIDs and back. IDs are assigned
// sequentially from 1 in first-intern order and are never reused, so a
// trace interned single-threaded always yields the same IDs for the same
// trace — simulation results stay reproducible — and an ID's Name never
// changes for the life of the table.
//
// Interner is safe for concurrent use: the prototype front-end interns
// request targets from parallel connection handlers. Re-interning an
// already-known target takes no lock at all — the hit path reads an
// atomically published map snapshot. Misses take one mutex and count
// toward the next snapshot rebuild, which is amortized over the table size.
//
// NewInterner returns an uncapped table: it grows with the number of
// distinct targets ever interned, which is exactly the trace's catalog in
// simulation and bounded in benchmark runs. NewCappedInterner(max) bounds
// the table for front-ends facing an unbounded URL space (query strings,
// crawlers): once it holds max targets every new target gets NoTarget, and
// the table — including its snapshot — never changes again (DESIGN.md §11).
type Interner struct {
	max  int
	snap atomic.Pointer[map[Target]TargetID]
	// full is set once a capped table holds max targets, after a last
	// snapshot rebuild: from then on a snapshot miss is an overflow,
	// answered NoTarget without a lock.
	full atomic.Bool

	mu      sync.Mutex
	ids     map[Target]TargetID
	pending int // snapshot misses since the last snapshot rebuild

	// names[id-1] is id's target, written once under mu before id is
	// published (through ids or the snapshot).
	chunks atomic.Pointer[[]*nameChunk]
	length atomic.Int32
}

// NewInterner returns an empty uncapped interner.
func NewInterner() *Interner {
	in := &Interner{ids: make(map[Target]TargetID)}
	in.rebuildLocked()
	return in
}

// NewInternerOf returns an uncapped interner holding names, names[i] under
// ID i+1 — the table that interning them in turn builds — with its
// snapshot published once. The names must be distinct.
func NewInternerOf(names []Target) *Interner {
	in := &Interner{ids: make(map[Target]TargetID, len(names))}
	for _, t := range names {
		in.addLocked(t)
	}
	if len(in.ids) != len(names) {
		panic("core: NewInternerOf with a repeated name")
	}
	in.rebuildLocked()
	return in
}

// NewCappedInterner returns an empty interner holding at most max targets;
// max must be positive.
func NewCappedInterner(max int) *Interner {
	if max <= 0 {
		panic("core: capped interner needs a positive target cap")
	}
	in := NewInterner()
	in.max = max
	return in
}

// Cap returns the target cap (0 for an uncapped interner).
func (in *Interner) Cap() int { return in.max }

// rebuildLocked publishes a fresh immutable snapshot of the authoritative
// map. Callers hold in.mu (or own the interner exclusively).
func (in *Interner) rebuildLocked() {
	m := maps.Clone(in.ids)
	in.snap.Store(&m)
	in.pending = 0
}

// Intern returns the ID for t, assigning the next dense ID if t is new. On
// a full capped table a new target gets NoTarget.
//
//phttp:hotpath
func (in *Interner) Intern(t Target) TargetID {
	if id, ok := (*in.snap.Load())[t]; ok {
		return id
	}
	if in.full.Load() {
		return NoTarget
	}
	return in.internSlow(t)
}

// InternBytes is Intern for a target still sitting in a read buffer: a
// target the snapshot already knows — and, on a full table, any target —
// is resolved without materializing a string, so a parser can intern
// before it copies. Only a miss that adds a target allocates: the string
// the table then keeps. The canonical string of the returned ID is
// Name(id).
//
//phttp:hotpath
func (in *Interner) InternBytes(b []byte) TargetID {
	if id, ok := (*in.snap.Load())[Target(b)]; ok {
		return id
	}
	if in.full.Load() {
		return NoTarget
	}
	return in.internSlow(Target(b))
}

// internSlow resolves a snapshot miss under the lock: a target interned
// since the last rebuild, or a new one.
func (in *Interner) internSlow(t Target) TargetID {
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[t]; ok {
		in.touchLocked()
		return id
	}
	if in.max > 0 && len(in.ids) >= in.max {
		return NoTarget
	}
	id := in.addLocked(t)
	if in.max > 0 && len(in.ids) == in.max {
		// The table is final: publish all of it, then let misses skip
		// the lock.
		in.rebuildLocked()
		in.full.Store(true)
	} else {
		in.touchLocked()
	}
	return id
}

// addLocked assigns t, which the table does not hold, the next ID. Callers
// hold in.mu (or own the interner exclusively).
func (in *Interner) addLocked(t Target) TargetID {
	s := in.length.Load()
	dir := in.chunks.Load()
	var cur []*nameChunk
	if dir != nil {
		cur = *dir
	}
	if int(s>>nameChunkBits) >= len(cur) {
		grown := make([]*nameChunk, len(cur)+1)
		copy(grown, cur)
		grown[len(cur)] = new(nameChunk)
		in.chunks.Store(&grown)
		cur = grown
	}
	cur[s>>nameChunkBits][s&nameChunkMask] = t
	in.length.Store(s + 1)
	id := TargetID(s + 1)
	in.ids[t] = id
	return id
}

// touchLocked notes one snapshot miss and rebuilds the snapshot once enough
// accumulate: small tables refresh immediately, large ones amortize the
// O(n) copy over n/8 misses.
func (in *Interner) touchLocked() {
	in.pending++
	if in.pending >= 1+len(in.ids)/8 {
		in.rebuildLocked()
	}
}

// Release is a no-op: IDs are never recycled, so there is no reference to
// drop. It is kept for callers that still pair it with Intern.
func (in *Interner) Release(TargetID) {}

// Lookup returns the ID for t without interning, and whether it was present.
func (in *Interner) Lookup(t Target) (TargetID, bool) {
	in.mu.Lock()
	id, ok := in.ids[t]
	in.mu.Unlock()
	return id, ok
}

// Name returns the target string of id. It panics on NoTarget or an ID this
// interner never assigned: both are driver bugs, not data.
func (in *Interner) Name(id TargetID) Target {
	if id <= 0 || int32(id) > in.length.Load() {
		panic(fmt.Sprintf("core: Name of unassigned TargetID %d", id))
	}
	s := int32(id) - 1
	return (*in.chunks.Load())[s>>nameChunkBits][s&nameChunkMask]
}

// Len returns the number of interned targets.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.ids)
}

// HighWater returns the largest ID assigned: dense per-ID slices downstream
// need exactly this many slots. IDs are dense, so it equals Len(), read
// without the lock.
func (in *Interner) HighWater() TargetID {
	return TargetID(in.length.Load())
}
