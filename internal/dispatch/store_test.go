package dispatch

import (
	"testing"

	"phttp/internal/dstate"
)

// TestEngineStoreAccessors pins the engine's dispatch-state surface: a
// plain engine runs on a local store over its own policy, and reports
// the node count it was built for.
func TestEngineStoreAccessors(t *testing.T) {
	eng, err := NewEngine(Spec{Policy: "lard", Nodes: 3, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Nodes() != 3 {
		t.Errorf("Nodes = %d, want 3", eng.Nodes())
	}
	s := eng.Store()
	if _, ok := s.(*dstate.Local); !ok {
		t.Errorf("Store = %v, want a local store", s)
	}
	if s.Policy() != eng.Policy() {
		t.Error("local store wraps a different policy than the engine's")
	}
}
