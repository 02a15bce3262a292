package cache

import (
	"fmt"
	"testing"

	"phttp/internal/core"
)

// TestIDLRURefcountsPinCachedTargets wires an evictable interner into an
// IDLRU and checks the pin protocol end to end: a cached target is
// unevictable at the interner (its ID can never be recycled into an alias),
// and eviction or removal releases the pin.
func TestIDLRURefcountsPinCachedTargets(t *testing.T) {
	in := core.NewEvictableInterner(8)
	c := NewIDLRU(2 << 10)
	c.SetRefCounter(in)

	a := in.Intern("/a") // parse hold
	c.Insert(a, 1<<10)   // cache hold
	if got := in.Refs(a); got != 2 {
		t.Fatalf("refs(/a) = %d after insert, want 2 (parse + cache)", got)
	}
	// Re-inserting a resident target must not double-acquire.
	c.Insert(a, 1<<10)
	if got := in.Refs(a); got != 2 {
		t.Fatalf("refs(/a) = %d after re-insert, want 2", got)
	}
	in.Release(a) // drop the parse hold; the cache still pins it
	if got := in.Refs(a); got != 1 {
		t.Fatalf("refs(/a) = %d, want cache's 1", got)
	}

	// Capacity pressure evicts /a and must release its pin.
	b := in.Intern("/b")
	c.Insert(b, 2<<10)
	in.Release(b)
	if c.Contains(a) {
		t.Fatal("capacity pressure did not evict /a")
	}
	if got := in.Refs(a); got != 0 {
		t.Errorf("refs(/a) = %d after eviction, want 0", got)
	}
	if got := in.Refs(b); got != 1 {
		t.Errorf("refs(/b) = %d while cached, want 1", got)
	}
	if !c.Remove(b) {
		t.Fatal("Remove(/b) found nothing")
	}
	if got := in.Refs(b); got != 0 {
		t.Errorf("refs(/b) = %d after Remove, want 0", got)
	}
}

// TestIDLRUCompactShrinksPositionTable drives the cache over a wide ID
// range, removes the high IDs, and checks Compact trims the dense position
// table to the interner's post-churn bound without touching resident
// entries.
func TestIDLRUCompactShrinksPositionTable(t *testing.T) {
	c := NewIDLRU(1 << 30)
	for id := core.TargetID(1); id <= 1024; id++ {
		c.Insert(id, 1)
	}
	for id := core.TargetID(9); id <= 1024; id++ {
		c.Remove(id)
	}
	kept := c.Compact(8)
	if kept > 16 {
		t.Errorf("Compact kept a %d-slot position table for 8 resident IDs", kept)
	}
	for id := core.TargetID(1); id <= 8; id++ {
		if !c.Contains(id) {
			t.Fatalf("Compact lost resident ID %d", id)
		}
	}
	// A resident ID above the requested bound must keep the table large
	// enough to address it.
	c.Insert(500, 1)
	if kept := c.Compact(8); kept < 501 {
		t.Errorf("Compact(8) kept %d slots with ID 500 resident", kept)
	}
	if !c.Contains(500) {
		t.Error("Compact lost resident high ID")
	}
}

// TestMappingRefcountsUnderChurn checks the same pin protocol on the
// concurrent mapping: after heavy map/evict/unmap churn against small
// per-node budgets, with nodes dropped now and then, the interner's live
// references equal the beliefs the mapping holds across its nodes —
// nothing leaked, nothing double-released.
func TestMappingRefcountsUnderChurn(t *testing.T) {
	const nodes = 3
	in := core.NewEvictableInterner(64)
	m := NewMapping(nodes, 16<<10)
	m.SetRefCounter(in)
	for i := 0; i < 4096; i++ {
		n := core.NodeID(i % nodes)
		id := in.Intern(core.Target(fmt.Sprintf("/t%d", i%300)))
		m.Map(id, 1<<10, n) // 16 resident entries per node at steady state
		in.Release(id)
		if i%7 == 0 {
			m.Unmap(id, n)
		}
		if i%1000 == 999 {
			m.DropNode(n)
		}
		if i%500 == 499 {
			in.Compact()
		}
	}
	refs, mapped := 0, 0
	for id := core.TargetID(1); id <= in.HighWater(); id++ {
		refs += max(in.Refs(id), 0)
	}
	for n := 0; n < nodes; n++ {
		mapped += m.MappedTargets(core.NodeID(n))
	}
	if refs != mapped {
		t.Errorf("%d live interner refs vs %d mapped beliefs (leak or double release)", refs, mapped)
	}
	in.Compact()
	if got := in.Len(); got > 64 {
		t.Errorf("interner table %d exceeds cap 64 under mapping churn", got)
	}
}
