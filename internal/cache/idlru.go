// Package cache provides the byte-budgeted LRU cache model used for
// back-end main-memory caches (both in the simulator and in the prototype
// doc store) and the front-end's target→node mapping table built on it.
//
// The LRU models FreeBSD's unified buffer cache at the granularity the
// paper's simulator uses: whole targets, evicted least-recently-used first
// under a byte capacity.
package cache

import "phttp/internal/core"

// IDLRU is the package's LRU: targets under a byte budget, evicted least
// recently used first. It is keyed by dense interned TargetID so the
// per-event path is a slice index instead of a string-keyed map probe, and
// backed by a slab with an index free list so steady-state
// lookup/insert/evict cycles allocate nothing.
//
// An IDLRU is not safe for concurrent use; Mapping and the prototype's doc
// store guard theirs with a lock. The zero value is not usable; call
// NewIDLRU.
type IDLRU struct {
	capacity int64
	bytes    int64
	// pos[id] is the slab slot of id plus one; 0 means not cached. It grows
	// to the highest ID seen, which is bounded by the interner's population
	// (and, under an evictable interner, by its cap — see Compact).
	pos   []int32
	slots []idEntry
	free  int32 // head of the slot free list, -1 if empty
	head  int32 // most recently used, -1 if empty
	tail  int32 // least recently used, -1 if empty

	// rc, when set, pins interned targets for as long as they are cached:
	// Acquire on insert, Release on evict. Nil (the simulator's pinned
	// workloads) costs nothing.
	rc core.RefCounter

	hits, misses int64
}

type idEntry struct {
	id         core.TargetID
	size       int64
	prev, next int32
}

const noEntry int32 = -1

// NewIDLRU returns an empty cache holding at most capacity bytes. A target
// larger than the capacity is never cached.
func NewIDLRU(capacity int64) *IDLRU {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	return &IDLRU{capacity: capacity, free: noEntry, head: noEntry, tail: noEntry}
}

// SetRefCounter wires the lifecycle hook called as entries come and go:
// rc.Acquire when a target is cached, rc.Release when it is evicted or
// removed, so an evictable interner never recycles an ID this cache still
// holds. Set it before first use; it is not safe to change under traffic.
func (c *IDLRU) SetRefCounter(rc core.RefCounter) { c.rc = rc }

// Capacity returns the byte budget.
func (c *IDLRU) Capacity() int64 { return c.capacity }

// Bytes returns the bytes currently cached.
func (c *IDLRU) Bytes() int64 { return c.bytes }

// Len returns the number of cached targets.
func (c *IDLRU) Len() int {
	n := 0
	for e := c.head; e != noEntry; e = c.slots[e].next {
		n++
	}
	return n
}

// Hits and Misses return the Lookup counters.
func (c *IDLRU) Hits() int64   { return c.hits }
func (c *IDLRU) Misses() int64 { return c.misses }

// ResetStats zeroes the hit/miss counters without touching contents.
func (c *IDLRU) ResetStats() { c.hits, c.misses = 0, 0 }

// slot returns id's slab slot, or noEntry.
func (c *IDLRU) slot(id core.TargetID) int32 {
	if id <= 0 {
		panic("cache: IDLRU operation on NoTarget; intern the request first")
	}
	if int(id) >= len(c.pos) {
		return noEntry
	}
	return c.pos[id] - 1
}

// The position table and the slab grow by doubling, not by append's ~1.25×
// for large slices: a cache filled from empty (every mapping table of a
// simulation run) then allocates about twice each table's final size in
// all, not four to five times.
func (c *IDLRU) setPos(id core.TargetID, s int32) {
	if int(id) >= len(c.pos) {
		grown := make([]int32, int(id)+1+len(c.pos))
		copy(grown, c.pos)
		c.pos = grown
	}
	c.pos[id] = s + 1
}

func (c *IDLRU) unlink(s int32) {
	e := &c.slots[s]
	if e.prev != noEntry {
		c.slots[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != noEntry {
		c.slots[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = noEntry, noEntry
}

func (c *IDLRU) pushFront(s int32) {
	e := &c.slots[s]
	e.next = c.head
	e.prev = noEntry
	if c.head != noEntry {
		c.slots[c.head].prev = s
	}
	c.head = s
	if c.tail == noEntry {
		c.tail = s
	}
}

// Lookup reports whether target is cached, counting a hit or miss and
// promoting the target to most-recently-used on a hit.
func (c *IDLRU) Lookup(id core.TargetID) bool {
	s := c.slot(id)
	if s == noEntry {
		c.misses++
		return false
	}
	c.hits++
	if c.head != s {
		c.unlink(s)
		c.pushFront(s)
	}
	return true
}

// Contains reports whether target is cached without promoting it or
// touching the counters.
func (c *IDLRU) Contains(id core.TargetID) bool { return c.slot(id) != noEntry }

// Insert caches target with the given size, evicting least-recently-used
// entries as needed. If the target is already present it is promoted and
// resized. Targets larger than the capacity are not cached and nothing is
// evicted for them.
//
//phttp:holds the acquired ref pins the cached target; evict releases it
func (c *IDLRU) Insert(id core.TargetID, size int64) {
	if size < 0 {
		panic("cache: negative size")
	}
	if s := c.slot(id); s != noEntry {
		c.bytes += size - c.slots[s].size
		c.slots[s].size = size
		if c.head != s {
			c.unlink(s)
			c.pushFront(s)
		}
		c.evictOver()
		return
	}
	if size > c.capacity {
		return
	}
	var s int32
	if c.free != noEntry {
		s = c.free
		c.free = c.slots[s].next
	} else {
		if len(c.slots) == cap(c.slots) {
			grown := make([]idEntry, len(c.slots), 2*len(c.slots)+8)
			copy(grown, c.slots)
			c.slots = grown
		}
		c.slots = append(c.slots, idEntry{})
		s = int32(len(c.slots) - 1)
	}
	c.slots[s] = idEntry{id: id, size: size, prev: noEntry, next: noEntry}
	c.setPos(id, s)
	c.pushFront(s)
	c.bytes += size
	if c.rc != nil {
		c.rc.Acquire(id)
	}
	c.evictOver()
}

// evictOver evicts from the tail while over budget, but never the entry
// just promoted if it is alone.
func (c *IDLRU) evictOver() {
	for c.bytes > c.capacity && c.tail != noEntry {
		victim := c.tail
		if victim == c.head {
			break
		}
		c.removeSlot(victim)
	}
}

func (c *IDLRU) removeSlot(s int32) {
	e := c.slots[s]
	c.unlink(s)
	c.pos[e.id] = 0
	c.bytes -= e.size
	c.slots[s] = idEntry{next: c.free}
	c.free = s
	if c.rc != nil {
		c.rc.Release(e.id)
	}
}

// Remove evicts target if present, reporting whether it was cached.
func (c *IDLRU) Remove(id core.TargetID) bool {
	s := c.slot(id)
	if s == noEntry {
		return false
	}
	c.removeSlot(s)
	return true
}

// Clear evicts every entry (releasing interner references, keeping the
// slab for reuse) without touching the hit/miss counters. The simulator
// uses it when a node crashes: the restarted back-end comes back with a
// cold main-memory cache, and Mapping.DropNode forgets what the front-end
// believed it cached.
func (c *IDLRU) Clear() {
	for c.head != noEntry {
		c.removeSlot(c.head)
	}
}

// Reset empties the cache for reuse at a new capacity: every entry is
// evicted (releasing interner references) and the counters are zeroed,
// but the slab and the position table are kept, so a cache reused across
// simulation runs regrows nothing.
func (c *IDLRU) Reset(capacity int64) {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	c.Clear()
	c.capacity = capacity
	c.ResetStats()
}

// Compact shrinks the dense position table to the highest ID still cached
// (but never below highWater, the interner's current ID bound, so the next
// insert does not immediately regrow it). Call it from the same maintenance
// hook that compacts the interner — after target churn the table otherwise
// stays sized for the all-time peak ID. Returns the retained position-table
// length.
func (c *IDLRU) Compact(highWater core.TargetID) int {
	maxID := int32(highWater)
	for s := c.head; s != noEntry; s = c.slots[s].next {
		if id := int32(c.slots[s].id); id > maxID {
			maxID = id
		}
	}
	want := int(maxID) + 1
	if want < len(c.pos) && cap(c.pos) > 2*want+64 {
		c.pos = append(make([]int32, 0, want), c.pos[:want]...)
	} else if want < len(c.pos) {
		clear(c.pos[want:])
		c.pos = c.pos[:want]
	}
	return len(c.pos)
}

// IDs returns the cached target IDs from most to least recently used.
// Intended for tests and diagnostics.
func (c *IDLRU) IDs() []core.TargetID {
	var out []core.TargetID
	for s := c.head; s != noEntry; s = c.slots[s].next {
		out = append(out, c.slots[s].id)
	}
	return out
}
