package cache

import "testing"

// TestCapacityAccessors pins that the LRU reports the budget it was
// constructed with, and that each of a mapping's nodes gets the per-node
// budget — the sizing knob scenario sweeps read back.
func TestCapacityAccessors(t *testing.T) {
	if got := NewIDLRU(200).Capacity(); got != 200 {
		t.Errorf("IDLRU Capacity = %d, want 200", got)
	}
	m := NewMapping(3, 400)
	for n := range m.perNode {
		if got := m.perNode[n].lru.Capacity(); got != 400 {
			t.Errorf("Mapping node %d capacity = %d, want 400", n, got)
		}
	}
}
