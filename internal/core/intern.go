package core

import (
	"fmt"
	"hash/maphash"
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
// before any policy or cache sees the request.
const NoTarget TargetID = 0

// RefCounter is the lifecycle hook an ID-keyed structure uses to pin the
// interned targets it holds: Acquire when an entry keyed by id is inserted,
// Release when it is evicted or removed. *Interner implements it; structures
// with a nil RefCounter skip the calls entirely, so the simulator's pinned
// workloads pay nothing.
type RefCounter interface {
	Acquire(id TargetID)
	Release(id TargetID)
}

// Sentinel slot values for the interner's lifecycle state. Slots are id-1.
const (
	nilSlot    int32 = -1 // list terminator / empty list
	notInLimbo int32 = -2 // entry is referenced (or dead), not in the limbo list
	deadRef    int32 = -1 // refs value marking a recycled (dead) slot
)

// deadName is the shared name of every dead slot, so killing an entry never
// allocates.
var deadName = Target("")

// Stripe sizing. Small caps get a single stripe: they behave exactly like
// the pre-sharding implementation (one global LRU, one lock), which the
// lifecycle model tests pin. Larger caps split into power-of-two stripes,
// each at least stripeMinTargets wide so per-stripe LRU pressure stays
// meaningful and a skewed hash cannot starve a stripe's budget.
const (
	stripeMinTargets = 256
	maxStripes       = 64
)

// Slot arena chunking: slots live in fixed-size chunks reached through an
// atomically published chunk directory, so lock-free readers hold a stable
// *islot across concurrent growth and Compact's truncation.
const (
	slotChunkBits = 10
	slotChunkSize = 1 << slotChunkBits
	slotChunkMask = slotChunkSize - 1
)

// islot is one interned target's slot. name and refs are read lock-free on
// the hit path; prev/next are limbo-list links touched only under the owning
// stripe's lock. A slot's stripe never changes: recycling rebinds it to a
// target of the same stripe (the victim and the free list are per-stripe),
// so the links are always guarded by one consistent mutex.
type islot struct {
	name atomic.Pointer[Target]
	refs atomic.Int32
	prev int32
	next int32
}

type slotChunk [slotChunkSize]islot

// slotArena is the shared slot store: a chunk directory published
// atomically plus an atomic length. Claims are serialized by mu (callers
// additionally hold a stripe lock); truncation happens with every stripe
// lock held, so it cannot race a claim.
type slotArena struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[]*slotChunk]
	length atomic.Int32
}

func (a *slotArena) slot(s int32) *islot {
	return &(*a.chunks.Load())[s>>slotChunkBits][s&slotChunkMask]
}

// slotIfPresent is the lock-free accessor: a reader acting on a stale
// snapshot may hold a slot index beyond a truncated directory, which is a
// miss, not a fault.
func (a *slotArena) slotIfPresent(s int32) *islot {
	dir := a.chunks.Load()
	if dir == nil || int(s>>slotChunkBits) >= len(*dir) {
		return nil
	}
	return &(*dir)[s>>slotChunkBits][s&slotChunkMask]
}

// claim appends one slot and returns its index, growing the chunk
// directory copy-on-write so concurrent lock-free readers keep a coherent
// view.
func (a *slotArena) claim() int32 {
	a.mu.Lock()
	s := a.length.Load()
	var cur []*slotChunk
	if dir := a.chunks.Load(); dir != nil {
		cur = *dir
	}
	if int(s>>slotChunkBits) >= len(cur) {
		grown := make([]*slotChunk, len(cur)+1)
		copy(grown, cur)
		grown[len(cur)] = new(slotChunk)
		a.chunks.Store(&grown)
	}
	a.length.Store(s + 1)
	a.mu.Unlock()
	return s
}

// grow bulk-allocates n slots (constructor path, no concurrency). The
// chunk pointers are carved from one backing slab, so a bulk load costs
// O(1) allocations instead of one per chunk; only pinned interners bulk
// load, so Compact's chunk-dropping truncation (which a shared slab would
// defeat) never sees a slab-backed arena.
func (a *slotArena) grow(n int) {
	nchunks := (n + slotChunkSize - 1) >> slotChunkBits
	slab := make([]islot, nchunks<<slotChunkBits)
	chunks := make([]*slotChunk, nchunks)
	for i := range chunks {
		chunks[i] = (*slotChunk)(slab[i<<slotChunkBits : (i+1)<<slotChunkBits])
	}
	a.chunks.Store(&chunks)
	a.length.Store(int32(n))
}

// truncate drops the trailing slots ≥ n and any chunks that became fully
// unused. Callers hold every stripe lock.
func (a *slotArena) truncate(n int32) {
	a.mu.Lock()
	keep := int(n+slotChunkSize-1) >> slotChunkBits
	if dir := a.chunks.Load(); dir != nil && keep < len(*dir) {
		trimmed := make([]*slotChunk, keep)
		copy(trimmed, (*dir)[:keep])
		a.chunks.Store(&trimmed)
	}
	a.length.Store(n)
	a.mu.Unlock()
}

// internStripe is one shard of the capped interner: an authoritative map
// guarded by mu, a read-only snapshot of it for the lock-free hit path, and
// the stripe's share of the lifecycle state (limbo LRU, free list, budget).
type internStripe struct {
	mu   sync.Mutex
	snap atomic.Pointer[map[Target]TargetID]

	ids     map[Target]TargetID
	pending int // mutations/snapshot misses since the last snapshot rebuild

	budget    int
	free      []TargetID
	limboHead int32
	limboTail int32
	limboLen  int
	recycles  int64
}

// rebuildLocked publishes a fresh immutable snapshot of the authoritative
// map. Callers hold st.mu.
func (st *internStripe) rebuildLocked() {
	m := make(map[Target]TargetID, len(st.ids))
	for k, v := range st.ids {
		m[k] = v
	}
	st.snap.Store(&m)
	st.pending = 0
}

// touchLocked notes one snapshot-visible change (or miss) and rebuilds the
// snapshot once enough accumulate: small stripes refresh immediately, large
// ones amortize the O(n) copy over n/8 changes.
func (st *internStripe) touchLocked() {
	st.pending++
	if st.pending >= 1+len(st.ids)/8 {
		st.rebuildLocked()
	}
}

// Interner maps Target strings to dense TargetIDs and back. IDs are assigned
// sequentially from 1 in first-intern order, so a trace interned
// single-threaded always yields the same IDs for the same trace — simulation
// results stay reproducible.
//
// Interner is safe for concurrent use: the prototype front-end interns
// request targets from parallel connection handlers. Re-interning an
// already-known target takes no lock at all — the hit path reads an
// atomically published map snapshot and (in capped mode) acquires its
// reference with a compare-and-swap (DESIGN.md §14).
//
// # Pinned vs evictable
//
// NewInterner returns a *pinned* interner: IDs are never recycled and memory
// grows with the number of distinct targets ever interned. That is exactly
// right for trace-driven simulation (the population is the trace's catalog)
// and bounded for the prototype's benchmark runs. Acquire and Release are
// no-ops, so the refcount protocol costs nothing on pinned workloads, and ID
// assignment order is byte-for-byte what it was before lifecycle management
// existed — simulation goldens are unaffected.
//
// NewEvictableInterner(max) returns a *capped* interner for front-ends
// facing an unbounded URL space (query strings, crawlers): every interned
// target carries a reference count, zero-ref targets sit on an LRU "limbo"
// list, and when the table is at its cap a new target recycles the ID of the
// least-recently-released limbo entry. The protocol:
//
//   - Intern returns the ID holding one reference; the caller releases it
//     when the request that carried it has been dispatched.
//   - ID-keyed structures (mapping tables, caches) Acquire on insert and
//     Release on evict, so an ID is never recycled while any structure still
//     holds an entry under it — recycling cannot alias two live targets.
//   - When every interned target is referenced the cap is exceeded rather
//     than failing: live references bound the overflow, and the table
//     shrinks back to the cap as references drain.
//
// Large caps are sharded into power-of-two stripes (per-stripe lock, limbo
// LRU and free list; the cap becomes per-stripe budgets summing to max), so
// parallel connection handlers do not serialize on one mutex. Small caps
// keep a single stripe and thus exactly the pre-sharding global-LRU
// behavior.
//
// Dead IDs go on a free list and are reused before new IDs are minted, so
// the dense per-ID slices downstream (cache position tables, policy
// counters) stay bounded by the cap instead of growing with target churn.
// Compact reclaims trailing dead slots after a churn burst.
type Interner struct {
	max     int
	mask    uint32
	seed    maphash.Seed
	stripes []internStripe
	arena   slotArena
}

// newInterner builds an interner with the given cap (0 = pinned) and stripe
// count (0 = choose from the cap).
func newInterner(max, stripes int) *Interner {
	if stripes <= 0 {
		stripes = autoStripes(max)
	}
	stripes = normStripes(max, stripes)
	in := &Interner{
		max:     max,
		mask:    uint32(stripes - 1),
		seed:    maphash.MakeSeed(),
		stripes: make([]internStripe, stripes),
	}
	base, rem := 0, 0
	if max > 0 {
		base, rem = max/stripes, max%stripes
	}
	for i := range in.stripes {
		st := &in.stripes[i]
		st.ids = make(map[Target]TargetID)
		st.budget = base
		if i < rem {
			st.budget++
		}
		st.limboHead, st.limboTail = nilSlot, nilSlot
		st.rebuildLocked()
	}
	return in
}

// autoStripes picks the stripe count for a cap: pinned interners get one
// stripe (their hit path is lock-free regardless), capped interners get as
// many power-of-two stripes as keep each at least stripeMinTargets wide.
func autoStripes(max int) int {
	if max == 0 {
		return 1
	}
	s := 1
	for s < maxStripes && max/(2*s) >= stripeMinTargets {
		s *= 2
	}
	return s
}

// normStripes rounds up to a power of two and clamps so every stripe has a
// positive budget in capped mode.
func normStripes(max, stripes int) int {
	s := 1
	for s < stripes && s < maxStripes {
		s *= 2
	}
	for max > 0 && s > 1 && max/s < 1 {
		s /= 2
	}
	return s
}

// stripeIndex routes a target to its stripe. The hash is per-interner
// seeded (maphash), which is fine even for reproducible runs: pinned IDs
// come from the shared arena in first-intern order, and capped eviction is
// already load-dependent.
func (in *Interner) stripeIndex(t Target) uint32 {
	if in.mask == 0 {
		return 0
	}
	return uint32(maphash.String(in.seed, string(t))) & in.mask
}

func (in *Interner) stripeFor(t Target) *internStripe {
	return &in.stripes[in.stripeIndex(t)]
}

// NewInterner returns an empty pinned interner: IDs live forever.
func NewInterner() *Interner {
	return newInterner(0, 0)
}

// NewInternerFromNames builds a pinned interner whose table is exactly
// names in order (names[i] ↔ ID i+1), taking ownership of the slice —
// callers must not mutate it afterwards. This is the bulk path for loaders
// that already hold a trace's target table: one presized map fill instead
// of a lock round trip per target. Duplicate names collapse to the first
// occurrence, so Len() < len(names) reports one.
func NewInternerFromNames(names []Target) *Interner {
	in := newInterner(0, 1)
	st := &in.stripes[0]
	st.ids = make(map[Target]TargetID, len(names))
	in.arena.grow(len(names))
	for i := range names {
		sl := in.arena.slot(int32(i))
		sl.name.Store(&names[i])
		sl.prev, sl.next = notInLimbo, notInLimbo
		if _, ok := st.ids[names[i]]; !ok {
			st.ids[names[i]] = TargetID(i + 1)
		}
	}
	st.rebuildLocked()
	return in
}

// NewEvictableInterner returns an empty capped interner holding at most max
// targets (see the type comment for the reference protocol). max must be
// positive. The stripe count is chosen from the cap; use
// NewEvictableInternerStripes to pin it.
func NewEvictableInterner(max int) *Interner {
	return NewEvictableInternerStripes(max, 0)
}

// NewEvictableInternerStripes is NewEvictableInterner with an explicit
// stripe count (rounded up to a power of two, clamped so every stripe gets
// a positive share of the cap). stripes ≤ 0 selects the automatic count.
func NewEvictableInternerStripes(max, stripes int) *Interner {
	if max <= 0 {
		panic("core: evictable interner needs a positive target cap")
	}
	return newInterner(max, stripes)
}

// Evictable reports whether this interner recycles IDs (capped mode).
func (in *Interner) Evictable() bool { return in.max > 0 }

// Cap returns the target cap (0 for a pinned interner).
func (in *Interner) Cap() int { return in.max }

// Stripes returns the number of shards the table is split into.
func (in *Interner) Stripes() int { return len(in.stripes) }

// Intern returns the ID for t, assigning an ID if t is new: a recycled dead
// ID when one is free, the next dense ID otherwise. In capped mode the
// returned ID holds one reference that the caller must Release when done;
// in pinned mode references are not tracked and Release is a no-op, so
// callers may follow the same protocol unconditionally.
//
// The hit path is lock-free: a snapshot lookup plus (capped) a CAS on the
// refcount, verified against the slot's current name so a recycled ID from
// a stale snapshot can never alias a different target.
//
//phttp:hotpath
func (in *Interner) Intern(t Target) TargetID {
	st := in.stripeFor(t)
	id, inSnap := (*st.snap.Load())[t]
	if inSnap {
		if in.max == 0 {
			return id
		}
		if in.tryAcquireHit(t, id) {
			return id
		}
	}
	return in.internSlow(st, t, !inSnap)
}

// InternBytes is Intern for a target still sitting in a read buffer: a
// target the snapshot already knows is resolved without materializing a
// string (the map lookup and the name comparison convert in place), so a
// parser can intern before it copies. Only a miss allocates — the string
// the table then keeps. The canonical string of the returned ID is
// Name(id). The reference protocol is Intern's.
//
//phttp:hotpath
func (in *Interner) InternBytes(b []byte) TargetID {
	st := &in.stripes[0]
	if in.mask != 0 {
		st = &in.stripes[uint32(maphash.Bytes(in.seed, b))&in.mask]
	}
	if id, ok := (*st.snap.Load())[Target(b)]; ok {
		if in.max == 0 {
			return id
		}
		// Capped: tryAcquireHit verifies against a Target, and the slot's
		// own name is one — if it still spells b.
		if sl := in.arena.slotIfPresent(int32(id) - 1); sl != nil {
			if name := sl.name.Load(); name != nil && *name == Target(b) && in.tryAcquireHit(*name, id) {
				return id
			}
		}
	}
	return in.Intern(Target(b))
}

// tryAcquireHit attempts the lock-free capped hit: bump the refcount while
// it is positive, then confirm the slot still names t — it may have been
// recycled since the snapshot was taken, in which case the spurious
// reference is undone and the caller falls back to the locked path.
//
//phttp:hotpath
func (in *Interner) tryAcquireHit(t Target, id TargetID) bool {
	sl := in.arena.slotIfPresent(int32(id) - 1)
	if sl == nil {
		return false
	}
	for {
		r := sl.refs.Load()
		if r <= 0 {
			return false // limbo or dead: revive under the stripe lock
		}
		if sl.refs.CompareAndSwap(r, r+1) {
			if name := sl.name.Load(); name != nil && *name == t {
				return true
			}
			in.releaseSlot(int32(id)-1, sl)
			return false
		}
	}
}

// internSlow resolves t under the stripe lock: revive/acquire a known
// entry, or assign a slot. missed reports whether the snapshot lacked t,
// i.e. whether a hit here should count toward a snapshot rebuild.
func (in *Interner) internSlow(st *internStripe, t Target, missed bool) TargetID {
	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok := st.ids[t]; ok {
		if missed {
			st.touchLocked()
		}
		if in.max == 0 {
			return id
		}
		sl := in.arena.slot(int32(id) - 1)
		for {
			r := sl.refs.Load()
			if r == 0 {
				in.limboRemoveLocked(st, int32(id)-1)
				sl.refs.Store(1)
				return id
			}
			if sl.refs.CompareAndSwap(r, r+1) {
				return id
			}
		}
	}
	return in.assignLocked(st, t)
}

// assignLocked binds a new target to an ID, recycling before growing.
// Callers hold the stripe lock.
func (in *Interner) assignLocked(st *internStripe, t Target) TargetID {
	if in.max > 0 {
		// At the stripe's budget: evict its least-recently-released
		// zero-ref target and reuse the ID. Its refcount is zero, so no
		// cache or mapping holds an entry keyed by the ID — reuse cannot
		// alias. Storing the new name before reviving the refcount keeps
		// the lock-free verify airtight: a stale reader either sees
		// refs ≤ 0 (and comes here) or refs ≥ 1 with the new name already
		// visible.
		if len(st.ids) >= st.budget && st.limboTail != nilSlot {
			s := st.limboTail
			in.limboRemoveLocked(st, s)
			sl := in.arena.slot(s)
			delete(st.ids, *sl.name.Load())
			name := t
			sl.name.Store(&name)
			sl.refs.Store(1)
			id := TargetID(s + 1)
			st.ids[t] = id
			st.recycles++
			st.touchLocked()
			return id
		}
		// Below the budget (or every target is referenced — the documented
		// overflow): prefer a dead slot from the stripe's free list so the
		// ID space stays dense.
		if n := len(st.free); n > 0 {
			id := st.free[n-1]
			st.free = st.free[:n-1]
			sl := in.arena.slot(int32(id) - 1)
			name := t
			sl.name.Store(&name)
			sl.refs.Store(1)
			sl.prev, sl.next = notInLimbo, notInLimbo
			st.ids[t] = id
			st.touchLocked()
			return id
		}
	}
	s := in.arena.claim()
	sl := in.arena.slot(s)
	name := t
	sl.name.Store(&name)
	sl.prev, sl.next = notInLimbo, notInLimbo
	if in.max > 0 {
		sl.refs.Store(1)
	}
	id := TargetID(s + 1)
	st.ids[t] = id
	st.touchLocked()
	return id
}

// Acquire adds a reference to id (no-op on a pinned interner). Acquiring a
// zero-ref ID revives it from limbo. It panics on a dead or never-assigned
// ID: by the reference protocol a caller can only acquire an ID it resolved
// through Intern or received alongside a live entry.
//
//phttp:hotpath
func (in *Interner) Acquire(id TargetID) {
	if in.max == 0 {
		return
	}
	sl := in.slotChecked(id, "Acquire")
	for {
		r := sl.refs.Load()
		if r > 0 {
			if sl.refs.CompareAndSwap(r, r+1) {
				return
			}
			continue
		}
		if r == deadRef {
			panicBadID("Acquire", "recycled", id)
		}
		// Zero refs: the 0→1 revival must pair with the limbo unlink under
		// the owning stripe's lock. The owner is named by the slot; confirm
		// it under the lock since a concurrent recycle may rebind the slot.
		name := sl.name.Load()
		if name == nil {
			panicBadID("Acquire", "unassigned", id)
		}
		st := in.stripeFor(*name)
		st.mu.Lock()
		cur := sl.name.Load()
		if cur == nil || in.stripeFor(*cur) != st {
			st.mu.Unlock()
			continue
		}
		if sl.refs.Load() == 0 {
			in.limboRemoveLocked(st, int32(id)-1)
			sl.refs.Store(1)
			st.mu.Unlock()
			return
		}
		st.mu.Unlock()
	}
}

// Release drops a reference to id (no-op on a pinned interner). When the
// last reference drains, the target parks on the limbo list: it is still
// resolvable (a re-Intern revives it) until table pressure recycles its ID.
//
//phttp:hotpath
func (in *Interner) Release(id TargetID) {
	if in.max == 0 {
		return
	}
	in.releaseSlot(int32(id)-1, in.slotChecked(id, "Release"))
}

// releaseSlot drops one reference from slot s. Decrements above one are a
// plain CAS; the final 1→0 transition happens under the owning stripe's
// lock, paired atomically with the limbo push, so "refs == 0" and "parked
// in limbo" can never disagree.
//
//phttp:hotpath
func (in *Interner) releaseSlot(s int32, sl *islot) {
	for {
		r := sl.refs.Load()
		if r > 1 {
			if sl.refs.CompareAndSwap(r, r-1) {
				return
			}
			continue
		}
		if r <= 0 {
			panicUnreferenced(s, sl)
		}
		// Our caller holds a reference, so the slot cannot be recycled out
		// from under us and its name (hence its stripe) is stable.
		st := in.stripeFor(*sl.name.Load())
		st.mu.Lock()
		if sl.refs.CompareAndSwap(1, 0) {
			in.limboPushLocked(st, s)
			st.mu.Unlock()
			return
		}
		st.mu.Unlock()
	}
}

// slotChecked validates id against the live table and returns its slot.
//
//phttp:hotpath
func (in *Interner) slotChecked(id TargetID, op string) *islot {
	if id <= 0 || int32(id) > in.arena.length.Load() {
		panicBadID(op, "unassigned", id)
	}
	sl := in.arena.slotIfPresent(int32(id) - 1)
	if sl == nil {
		panicBadID(op, "unassigned", id)
	}
	if sl.refs.Load() == deadRef {
		panicBadID(op, "recycled", id)
	}
	return sl
}

// panicBadID and panicUnreferenced are the cold formatting helpers for
// the reference-protocol panics: the annotated hot paths above must not
// call fmt themselves.
func panicBadID(op, kind string, id TargetID) {
	panic(fmt.Sprintf("core: %s of %s TargetID %d", op, kind, id))
}

func panicUnreferenced(s int32, sl *islot) {
	name := ""
	if p := sl.name.Load(); p != nil {
		name = string(*p)
	}
	panic(fmt.Sprintf("core: Release of unreferenced TargetID %d (%q)", s+1, name))
}

// limboPushLocked parks slot s at the MRU end of the stripe's limbo list.
func (in *Interner) limboPushLocked(st *internStripe, s int32) {
	sl := in.arena.slot(s)
	sl.prev = nilSlot
	sl.next = st.limboHead
	if st.limboHead != nilSlot {
		in.arena.slot(st.limboHead).prev = s
	}
	st.limboHead = s
	if st.limboTail == nilSlot {
		st.limboTail = s
	}
	st.limboLen++
}

// limboRemoveLocked unlinks slot s from the stripe's limbo list.
func (in *Interner) limboRemoveLocked(st *internStripe, s int32) {
	sl := in.arena.slot(s)
	prev, next := sl.prev, sl.next
	if prev == notInLimbo || next == notInLimbo {
		panic(fmt.Sprintf("core: limbo unlink of non-limbo slot %d", s))
	}
	if prev != nilSlot {
		in.arena.slot(prev).next = next
	} else {
		st.limboHead = next
	}
	if next != nilSlot {
		in.arena.slot(next).prev = prev
	} else {
		st.limboTail = prev
	}
	sl.prev, sl.next = notInLimbo, notInLimbo
	st.limboLen--
}

// AppendNames appends the interner's targets in ID order (names[i] is the
// target of ID i+1) to dst and returns it, without a lock round trip per
// entry. On a capped interner dead slots appear as empty strings.
func (in *Interner) AppendNames(dst []Target) []Target {
	n := in.arena.length.Load()
	if need := len(dst) + int(n); cap(dst) < need {
		grown := make([]Target, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for s := int32(0); s < n; s++ {
		sl := in.arena.slotIfPresent(s)
		if sl == nil {
			break
		}
		if p := sl.name.Load(); p != nil {
			dst = append(dst, *p)
		} else {
			dst = append(dst, "")
		}
	}
	return dst
}

// Lookup returns the ID for t without interning, and whether it was present.
// In capped mode it takes no reference, so the binding is only stable while
// the caller otherwise holds the ID alive — use it for diagnostics, not on
// the dispatch path.
func (in *Interner) Lookup(t Target) (TargetID, bool) {
	st := in.stripeFor(t)
	st.mu.Lock()
	id, ok := st.ids[t]
	st.mu.Unlock()
	return id, ok
}

// Name returns the target string of id. It panics on NoTarget, a recycled
// ID, or an ID this interner never assigned: all are driver bugs, not data.
func (in *Interner) Name(id TargetID) Target {
	if id <= 0 || int32(id) > in.arena.length.Load() {
		panic(fmt.Sprintf("core: Name of unassigned TargetID %d", id))
	}
	sl := in.arena.slotIfPresent(int32(id) - 1)
	if sl == nil {
		panic(fmt.Sprintf("core: Name of unassigned TargetID %d", id))
	}
	if in.max > 0 && sl.refs.Load() == deadRef {
		panic(fmt.Sprintf("core: Name of recycled TargetID %d", id))
	}
	p := sl.name.Load()
	if p == nil {
		panic(fmt.Sprintf("core: Name of unassigned TargetID %d", id))
	}
	return *p
}

// Len returns the number of currently interned targets (live plus limbo).
// On a pinned interner valid IDs are exactly 1..Len(); on a capped interner
// the live ID range is 1..HighWater() with dead slots interspersed.
func (in *Interner) Len() int {
	n := 0
	for i := range in.stripes {
		st := &in.stripes[i]
		st.mu.Lock()
		n += len(st.ids)
		st.mu.Unlock()
	}
	return n
}

// HighWater returns the largest ID ever assigned and not yet compacted
// away: dense per-ID slices downstream need exactly this many slots.
func (in *Interner) HighWater() TargetID {
	return TargetID(in.arena.length.Load())
}

// Limbo returns the number of interned targets with no references (eviction
// candidates). Always 0 on a pinned interner.
func (in *Interner) Limbo() int {
	n := 0
	for i := range in.stripes {
		st := &in.stripes[i]
		st.mu.Lock()
		n += st.limboLen
		st.mu.Unlock()
	}
	return n
}

// Recycles returns how many IDs have been recycled for a new target.
func (in *Interner) Recycles() int64 {
	var n int64
	for i := range in.stripes {
		st := &in.stripes[i]
		st.mu.Lock()
		n += st.recycles
		st.mu.Unlock()
	}
	return n
}

// Refs returns id's reference count (0 for limbo entries), or -1 if the
// slot is dead. On a pinned interner it always reports 0. Diagnostics and
// tests only.
func (in *Interner) Refs(id TargetID) int {
	if in.max == 0 || id <= 0 || int32(id) > in.arena.length.Load() {
		return 0
	}
	sl := in.arena.slotIfPresent(int32(id) - 1)
	if sl == nil {
		return 0
	}
	return int(sl.refs.Load())
}

// lockAll acquires every stripe lock in index order (the unlock order does
// not matter). With all stripes held no Intern, Acquire or Release can make
// progress, so Compact's cross-stripe truncation is quiescent.
func (in *Interner) lockAll() {
	for i := range in.stripes {
		in.stripes[i].mu.Lock()
	}
}

func (in *Interner) unlockAll() {
	for i := range in.stripes {
		in.stripes[i].mu.Unlock()
	}
}

// Compact is the periodic maintenance hook: it first shrinks each stripe
// back to its budget — an overflow while every target was referenced grows
// the table past it, and the excess dies here (LRU-first from the stripe's
// limbo) once references have drained — then reclaims trailing dead slots,
// and returns the new high water. Dead IDs go on the stripe free lists for
// reuse. The ID space only ever shrinks from the top — live IDs are never
// renumbered, so ID-keyed structures stay valid and may trim their own
// dense slices to the returned bound (see IDLRU.Compact and
// LARDR.CompactTargets). Whole trailing arena chunks freed by the shrink
// are returned to the heap. No-op on a pinned interner.
func (in *Interner) Compact() TargetID {
	if in.max == 0 {
		return TargetID(in.arena.length.Load())
	}
	in.lockAll()
	defer in.unlockAll()
	for i := range in.stripes {
		st := &in.stripes[i]
		for len(st.ids) > st.budget && st.limboTail != nilSlot {
			s := st.limboTail
			in.limboRemoveLocked(st, s)
			sl := in.arena.slot(s)
			delete(st.ids, *sl.name.Load())
			sl.name.Store(&deadName)
			sl.refs.Store(deadRef)
			st.free = append(st.free, TargetID(s+1))
			st.pending++
		}
	}
	n := in.arena.length.Load()
	for n > 0 && in.arena.slot(n-1).refs.Load() == deadRef {
		n--
	}
	if n != in.arena.length.Load() {
		in.arena.truncate(n)
		// Drop freed IDs that now lie beyond the table.
		for i := range in.stripes {
			st := &in.stripes[i]
			kept := st.free[:0]
			for _, id := range st.free {
				if int32(id) <= n {
					kept = append(kept, id)
				}
			}
			st.free = kept
		}
	}
	// Refresh only the snapshots that drifted; an idle Compact (the common
	// steady-state Maintain) must not allocate.
	for i := range in.stripes {
		if st := &in.stripes[i]; st.pending > 0 {
			st.rebuildLocked()
		}
	}
	return TargetID(n)
}

// EnsureID returns r.ID if set, interning r.Target otherwise. It does not
// mutate r. On a capped interner the fresh-intern path takes a reference
// the caller owns (see Intern).
func (in *Interner) EnsureID(r Request) TargetID {
	if r.ID != NoTarget {
		return r.ID
	}
	return in.Intern(r.Target)
}
