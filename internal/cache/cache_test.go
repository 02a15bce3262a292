package cache

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"phttp/internal/core"
)

// Shorthand IDs for readability: interned IDs are 1-based.
const (
	idA core.TargetID = 1
	idB core.TargetID = 2
	idC core.TargetID = 3
)

// modelLRU is the reference the LRU tests compare against: the entries in
// a slice, most recently used first, evicted from the end while over the
// byte budget — except the last one left.
type modelLRU struct {
	capacity int64
	entries  []modelEntry
}

type modelEntry struct {
	id   core.TargetID
	size int64
}

// touch promotes id to most recently used, reporting whether it is cached.
func (m *modelLRU) touch(id core.TargetID) bool {
	i := slices.IndexFunc(m.entries, func(e modelEntry) bool { return e.id == id })
	if i < 0 {
		return false
	}
	e := m.entries[i]
	copy(m.entries[1:i+1], m.entries[:i])
	m.entries[0] = e
	return true
}

func (m *modelLRU) insert(id core.TargetID, size int64) {
	if m.touch(id) {
		m.entries[0].size = size
	} else if size <= m.capacity {
		m.entries = slices.Insert(m.entries, 0, modelEntry{id, size})
	}
	for len(m.entries) > 1 && m.bytes() > m.capacity {
		m.entries = m.entries[:len(m.entries)-1]
	}
}

func (m *modelLRU) remove(id core.TargetID) bool {
	n := len(m.entries)
	m.entries = slices.DeleteFunc(m.entries, func(e modelEntry) bool { return e.id == id })
	return len(m.entries) < n
}

func (m *modelLRU) bytes() (b int64) {
	for _, e := range m.entries {
		b += e.size
	}
	return b
}

// matches reports whether c holds exactly the model's entries, in the
// model's recency order, with the model's byte count.
func (m *modelLRU) matches(c *IDLRU) bool {
	ids := make([]core.TargetID, len(m.entries))
	for i, e := range m.entries {
		ids[i] = e.id
	}
	return c.Bytes() == m.bytes() && c.Len() == len(m.entries) && slices.Equal(c.IDs(), ids)
}

// checkInvariants verifies an IDLRU's internal consistency: the recency
// list links both ways, every listed entry is indexed at its slot and
// nothing else is, and Bytes is the sum of the listed sizes and within the
// budget unless a lone oversize resident is all there is.
func checkInvariants(c *IDLRU) error {
	var sum int64
	n, prev := 0, noEntry
	for s := c.head; s != noEntry; s = c.slots[s].next {
		e := c.slots[s]
		if e.prev != prev {
			return fmt.Errorf("slot %d links back to %d, want %d", s, e.prev, prev)
		}
		if c.pos[e.id] != s+1 {
			return fmt.Errorf("id %d lives in slot %d but is indexed at %d", e.id, s, c.pos[e.id]-1)
		}
		sum += e.size
		n++
		prev = s
	}
	if c.tail != prev {
		return fmt.Errorf("tail is slot %d, list ends at %d", c.tail, prev)
	}
	indexed := 0
	for _, p := range c.pos {
		if p != 0 {
			indexed++
		}
	}
	switch {
	case indexed != n:
		return fmt.Errorf("%d ids indexed, %d entries listed", indexed, n)
	case sum != c.Bytes():
		return fmt.Errorf("entry sizes sum to %d, Bytes() reports %d", sum, c.Bytes())
	case c.Bytes() > c.Capacity() && n > 1:
		return fmt.Errorf("Bytes() = %d over capacity %d with %d entries", c.Bytes(), c.Capacity(), n)
	}
	return nil
}

func TestLRUBasicInsertLookup(t *testing.T) {
	c := NewIDLRU(100)
	for _, id := range []core.TargetID{idA, idB} {
		if c.Lookup(id) {
			t.Errorf("empty cache reported a hit on %d", id)
		}
		c.Insert(id, 40)
	}
	if !c.Lookup(idA) || !c.Lookup(idB) {
		t.Error("inserted target missed")
	}
	if c.Bytes() != 80 || c.Len() != 2 {
		t.Errorf("Bytes=%d Len=%d, want 80/2", c.Bytes(), c.Len())
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", c.Hits(), c.Misses())
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewIDLRU(100)
	c.Insert(idA, 30)
	c.Insert(idB, 30)
	c.Insert(idC, 30)
	c.Lookup(idA)     // order: A C B
	c.Insert(4, 60)   // over by 50: evicts B, then C
	c.Insert(idA, 40) // resident resize: nothing to evict
	want := []core.TargetID{idA, 4}
	if got := c.IDs(); !slices.Equal(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
}

func TestLRUOversizeTargetNotCached(t *testing.T) {
	c := NewIDLRU(100)
	c.Insert(idA, 40)
	c.Insert(idB, 101)
	if c.Contains(idB) || !c.Contains(idA) || c.Bytes() != 40 {
		t.Error("an oversize insert was cached or disturbed existing entries")
	}
	// A resident resized past the budget stays, alone.
	c.Insert(idC, 30)
	c.Insert(idA, 150)
	if got := c.IDs(); !slices.Equal(got, []core.TargetID{idA}) || c.Bytes() != 150 {
		t.Errorf("after oversize resize: IDs %v, Bytes %d; want [%d], 150", got, c.Bytes(), idA)
	}
}

func TestLRUResize(t *testing.T) {
	c := NewIDLRU(100)
	c.Insert(idA, 30)
	c.Insert(idA, 60) // resize in place
	if c.Bytes() != 60 || c.Len() != 1 {
		t.Errorf("Bytes=%d Len=%d after resize, want 60/1", c.Bytes(), c.Len())
	}
}

func TestLRURemoveAndClear(t *testing.T) {
	c := NewIDLRU(100)
	c.Insert(idA, 10)
	c.Insert(idB, 10)
	if !c.Remove(idA) || c.Remove(idA) {
		t.Error("Remove semantics wrong")
	}
	if c.Bytes() != 10 {
		t.Errorf("Bytes=%d after remove, want 10", c.Bytes())
	}
	c.Lookup(idB)
	c.Clear()
	if c.Len() != 0 || c.Bytes() != 0 || c.Contains(idB) {
		t.Error("Clear left residue")
	}
	if c.Hits() != 1 {
		t.Error("Clear touched the counters")
	}
	c.Insert(idC, 10) // reuses a freed slot
	if err := checkInvariants(c); err != nil {
		t.Error(err)
	}
}

func TestLRUContainsDoesNotPromoteOrCount(t *testing.T) {
	c := NewIDLRU(100)
	c.Insert(idA, 40)
	c.Insert(idB, 40)
	c.Contains(idA) // must NOT promote
	c.Insert(idC, 40)
	if c.Contains(idA) || !c.Contains(idB) {
		t.Error("Contains promoted idA")
	}
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("Contains touched counters")
	}
}

func TestLRUTargetsOrder(t *testing.T) {
	c := NewIDLRU(1000)
	c.Insert(idA, 1)
	c.Insert(idB, 1)
	c.Insert(idC, 1)
	c.Lookup(idA)
	want := []core.TargetID{idA, idC, idB}
	if got := c.IDs(); !slices.Equal(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
}

// The hit rate a caller derives from Hits and Misses counts every Lookup
// once and nothing else.
func TestLRUHitRate(t *testing.T) {
	c := NewIDLRU(100)
	c.Insert(idA, 10)
	c.Lookup(idA)
	c.Lookup(idA)
	c.Lookup(idB)
	c.Contains(idB)
	c.Insert(idB, 10)
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", c.Hits(), c.Misses())
	}
	c.ResetStats()
	if c.Hits() != 0 || c.Misses() != 0 || c.Len() != 2 {
		t.Error("ResetStats did not zero only the counters")
	}
}

// Property: the byte budget is never exceeded, Bytes always equals the sum
// of cached entry sizes, and the slab, index and recency list agree, under
// arbitrary insert/lookup/remove mixes.
func TestLRUInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewIDLRU(1000)
		for _, op := range ops {
			id := core.TargetID(op%50) + 1
			switch op % 3 {
			case 0:
				c.Insert(id, int64(op%300)+1)
			case 1:
				c.Lookup(id)
			case 2:
				c.Remove(id)
			}
			if err := checkInvariants(c); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLRUNegativePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"size":     func() { NewIDLRU(10).Insert(idA, -1) },
		"capacity": func() { NewIDLRU(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("negative %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMappingBasics(t *testing.T) {
	m := NewMapping(3, 100)
	m.Map(idA, 40, 1)
	if !m.IsMapped(idA, 1) || m.IsMapped(idA, 0) {
		t.Error("mapping state wrong after Map")
	}
	m.Map(idA, 40, 2)
	nodes := m.NodesFor(idA)
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 2 {
		t.Errorf("NodesFor = %v, want [be1 be2]", nodes)
	}
	buf := make([]core.NodeID, 0, 4)
	into := m.AppendNodesFor(buf, idA)
	if len(into) != 2 || &into[0] != &buf[:1][0] {
		t.Errorf("AppendNodesFor did not reuse the buffer: %v", into)
	}
	m.Unmap(idA, 1)
	if m.IsMapped(idA, 1) {
		t.Error("Unmap did not remove mapping")
	}
}

func TestMappingAgesOutUnderBudget(t *testing.T) {
	m := NewMapping(1, 100)
	m.Map(idA, 60, 0)
	m.Map(idB, 60, 0) // idA must age out
	if m.IsMapped(idA, 0) {
		t.Error("idA still mapped beyond budget")
	}
	if !m.IsMapped(idB, 0) {
		t.Error("idB not mapped")
	}
}

func TestMappingTouchPromotes(t *testing.T) {
	m := NewMapping(1, 100)
	m.Map(idA, 50, 0)
	m.Map(idB, 50, 0)
	m.Touch(idA, 0)   // idA most recent, idB is LRU
	m.Touch(idC, 0)   // not mapped: no effect
	m.Map(idC, 50, 0) // evicts idB
	if !m.IsMapped(idA, 0) || m.IsMapped(idB, 0) {
		t.Error("Touch did not promote idA over idB")
	}
	if got := m.MappedTargets(0); got != 2 {
		t.Errorf("MappedTargets = %d, want 2", got)
	}
	if got := m.MappedBytes(0); got != 100 {
		t.Errorf("MappedBytes = %d, want 100", got)
	}
}
