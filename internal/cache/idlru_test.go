package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"phttp/internal/core"
)

func TestIDLRUBasicInsertLookup(t *testing.T) {
	c := NewIDLRU(100)
	if c.Lookup(idA) {
		t.Error("empty cache reported a hit")
	}
	c.Insert(idA, 40)
	if !c.Lookup(idA) {
		t.Error("inserted target missed")
	}
	if c.Bytes() != 40 || c.Len() != 1 {
		t.Errorf("Bytes=%d Len=%d, want 40/1", c.Bytes(), c.Len())
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
	c.ResetStats()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestIDLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewIDLRU(100)
	c.Insert(idA, 40)
	c.Insert(idB, 40)
	c.Lookup(idA) // promote idA; idB is now LRU
	c.Insert(idC, 40)
	if !c.Contains(idA) || !c.Contains(idC) || c.Contains(idB) {
		t.Error("wrong survivors after eviction")
	}
}

func TestIDLRUOversizeTargetNotCached(t *testing.T) {
	c := NewIDLRU(100)
	c.Insert(idA, 40)
	c.Insert(idB, 200)
	if c.Contains(idB) {
		t.Error("oversize target cached")
	}
	if !c.Contains(idA) {
		t.Error("oversize insert disturbed existing entries")
	}
}

func TestIDLRUPanicsOnNoTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Lookup(NoTarget) did not panic")
		}
	}()
	NewIDLRU(100).Lookup(core.NoTarget)
}

// Property: IDLRU behaves exactly like the reference model for any
// lookup/insert/remove mix — same membership, bytes, count, hit/miss
// counters, and most-to-least-recent order.
func TestIDLRUMatchesLRU(t *testing.T) {
	const capacity = 1000
	f := func(ops []uint16) bool {
		idc := NewIDLRU(capacity)
		ref := &modelLRU{capacity: capacity}
		var hits, misses int64
		for _, op := range ops {
			id := core.TargetID(op%50) + 1
			size := int64(op%300) + 1
			switch op % 3 {
			case 0:
				idc.Insert(id, size)
				ref.insert(id, size)
			case 1:
				hit := ref.touch(id)
				if idc.Lookup(id) != hit {
					return false
				}
				if hit {
					hits++
				} else {
					misses++
				}
			case 2:
				if idc.Remove(id) != ref.remove(id) {
					return false
				}
			}
			if !ref.matches(idc) || idc.Hits() != hits || idc.Misses() != misses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Reset empties a cache for reuse at a new capacity: nothing stays cached,
// the counters read zero, and refilling it to its old population allocates
// nothing — the slab and the position table survive.
func TestIDLRUReset(t *testing.T) {
	in := core.NewInterner()
	c := NewIDLRU(1 << 20)
	ids := make([]core.TargetID, 100)
	for i := range ids {
		ids[i] = in.Intern(core.Target(fmt.Sprintf("/t%d", i)))
		c.Insert(ids[i], 10)
		c.Lookup(ids[i])
	}
	c.Lookup(ids[0] + 1000)
	c.Reset(500)
	if c.Capacity() != 500 || c.Len() != 0 || c.Bytes() != 0 || c.Hits() != 0 || c.Misses() != 0 {
		t.Fatalf("after Reset: capacity %d, %d entries, %d B, hits %d, misses %d; want 500, 0, 0, 0, 0",
			c.Capacity(), c.Len(), c.Bytes(), c.Hits(), c.Misses())
	}
	for _, id := range ids {
		if c.Contains(id) {
			t.Fatalf("target %d survived Reset", id)
		}
	}
	if err := checkInvariants(c); err != nil {
		t.Fatal(err)
	}
	c.Reset(1 << 20)
	avg := testing.AllocsPerRun(5, func() {
		c.Reset(1 << 20)
		for _, id := range ids {
			c.Insert(id, 10)
		}
	})
	if avg != 0 {
		t.Errorf("refilling a reset cache allocates %.2f per run, want 0", avg)
	}
}

// Steady state on a full cache must allocate nothing: the slab, free list
// and pos index absorb the insert/evict churn.
func TestIDLRUSteadyStateZeroAllocs(t *testing.T) {
	c := NewIDLRU(100)
	for id := core.TargetID(1); id <= 50; id++ {
		c.Insert(id, 10) // warm: grows slab and pos, fills to eviction
	}
	next := core.TargetID(1)
	avg := testing.AllocsPerRun(2000, func() {
		if !c.Lookup(next) {
			c.Insert(next, 10)
		}
		next++
		if next > 50 {
			next = 1
		}
	})
	if avg != 0 {
		t.Errorf("steady-state lookup/insert allocates %.2f allocs/op, want 0", avg)
	}
}
