package core

import (
	"testing"
	"testing/quick"
)

func TestMicrosString(t *testing.T) {
	cases := []struct {
		in   Micros
		want string
	}{
		{500, "500µs"},
		{1500, "1.500ms"},
		{2 * Second, "2.000s"},
		{0, "0µs"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Micros(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestMicrosSeconds(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", got)
	}
}

func TestNodeIDString(t *testing.T) {
	if got := NoNode.String(); got != "none" {
		t.Errorf("NoNode.String() = %q", got)
	}
	if got := NodeID(3).String(); got != "be3" {
		t.Errorf("NodeID(3).String() = %q", got)
	}
}

func TestMechanismStringAndPerRequest(t *testing.T) {
	cases := []struct {
		m          Mechanism
		name       string
		perRequest bool
	}{
		{SingleHandoff, "singleHandoff", false},
		{MultipleHandoff, "multiHandoff", true},
		{BEForwarding, "BEforward", true},
		{RelayFrontEnd, "relayFE", true},
		{ZeroCostHandoff, "zeroCost", true},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.name {
			t.Errorf("%v.String() = %q, want %q", int(c.m), got, c.name)
		}
		if got := c.m.PerRequest(); got != c.perRequest {
			t.Errorf("%s.PerRequest() = %v, want %v", c.name, got, c.perRequest)
		}
	}
}

func TestBatchAccounting(t *testing.T) {
	b := Batch{{Target: "/a", Size: 100}, {Target: "/b", Size: 200}}
	if b.Requests() != 2 {
		t.Errorf("Requests() = %d, want 2", b.Requests())
	}
	if b.Bytes() != 300 {
		t.Errorf("Bytes() = %d, want 300", b.Bytes())
	}
}

func TestConnectionAccounting(t *testing.T) {
	c := Connection{Batches: []Batch{
		{{Target: "/a", Size: 10}},
		{{Target: "/b", Size: 20}, {Target: "/c", Size: 30}},
	}}
	if c.Requests() != 3 {
		t.Errorf("Requests() = %d, want 3", c.Requests())
	}
	if c.Bytes() != 60 {
		t.Errorf("Bytes() = %d, want 60", c.Bytes())
	}
}

func TestLoadTrackerConnLifecycle(t *testing.T) {
	lt := NewLoadTracker(3)
	lt.AddConn(1)
	lt.AddConn(1)
	lt.AddConn(2)
	if lt.Load(1) != 2 || lt.Conns(1) != 2 {
		t.Errorf("node 1: load=%v conns=%d, want 2/2", lt.Load(1), lt.Conns(1))
	}
	if lt.Least() != 0 {
		t.Errorf("Least() = %v, want be0", lt.Least())
	}
	lt.MoveConn(1, 0)
	if lt.Conns(1) != 1 || lt.Conns(0) != 1 {
		t.Errorf("after move: conns = %d,%d, want 1,1", lt.Conns(0), lt.Conns(1))
	}
	lt.RemoveConn(0)
	lt.RemoveConn(1)
	lt.RemoveConn(2)
	if lt.Total() != 0 {
		t.Errorf("Total() = %v after removing all, want 0", lt.Total())
	}
}

func TestLoadTrackerNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RemoveConn on empty node did not panic")
		}
	}()
	NewLoadTracker(1).RemoveConn(0)
}

func TestChargeBatchAndClear(t *testing.T) {
	lt := NewLoadTracker(3)
	c := NewConnState(1)
	c.Handling = 0
	lt.AddConn(0)

	// Batch of 4 with two remote serves at node 1 and one at node 2.
	lt.ChargeBatch(c, 0, []NodeID{1, 1, 2}, 4)
	if got := lt.Load(1); got != 0.5 {
		t.Errorf("node 1 load = %v, want 0.5 (2 * 1/4)", got)
	}
	if got := lt.Load(2); got != 0.25 {
		t.Errorf("node 2 load = %v, want 0.25", got)
	}
	// Handling-node and NoNode entries carry no charge.
	lt.ChargeBatch(c, 0, []NodeID{0, NoNode}, 2)
	if got := lt.Load(0); got != 1 {
		t.Errorf("handling node load = %v, want 1 (conn unit only)", got)
	}

	lt.ClearBatch(c)
	if lt.Load(1) != 0 || lt.Load(2) != 0 {
		t.Errorf("after ClearBatch: loads %v, %v, want 0, 0", lt.Load(1), lt.Load(2))
	}
	if len(c.RemoteLoad) != 0 {
		t.Error("RemoteLoad not cleared")
	}
}

func TestInternerAssignsDenseIDs(t *testing.T) {
	in := NewInterner()
	a := in.Intern("/a")
	b := in.Intern("/b")
	if a != 1 || b != 2 {
		t.Errorf("first IDs = %d, %d, want 1, 2", a, b)
	}
	if got := in.Intern("/a"); got != a {
		t.Errorf("re-intern changed ID: %d != %d", got, a)
	}
	if in.Len() != 2 {
		t.Errorf("Len() = %d, want 2", in.Len())
	}
	if in.Name(a) != "/a" || in.Name(b) != "/b" {
		t.Errorf("Name round trip failed: %q, %q", in.Name(a), in.Name(b))
	}
	if id, ok := in.Lookup("/b"); !ok || id != b {
		t.Errorf("Lookup(/b) = %d, %v", id, ok)
	}
	if _, ok := in.Lookup("/missing"); ok {
		t.Error("Lookup invented an ID")
	}
}

func TestInternerNamePanicsOnNoTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Name(NoTarget) did not panic")
		}
	}()
	NewInterner().Name(NoTarget)
}

func TestClearBatchIdempotent(t *testing.T) {
	lt := NewLoadTracker(2)
	c := NewConnState(1)
	c.Handling = 0
	lt.AddConn(0)
	lt.ChargeBatch(c, 0, []NodeID{1}, 2)
	lt.ClearBatch(c)
	lt.ClearBatch(c) // second clear must be a no-op
	if lt.Load(1) != 0 {
		t.Errorf("load(1) = %v after double clear", lt.Load(1))
	}
}

// Property: any sequence of ChargeBatch/ClearBatch pairs returns all loads
// to exactly the connection units.
func TestChargeClearBalanced(t *testing.T) {
	f := func(batches []uint8) bool {
		lt := NewLoadTracker(4)
		c := NewConnState(1)
		c.Handling = 0
		lt.AddConn(0)
		for _, b := range batches {
			n := int(b%6) + 1
			nodes := make([]NodeID, 0, n)
			for i := 0; i < n; i++ {
				nodes = append(nodes, NodeID(int(b+uint8(i))%4))
			}
			lt.ChargeBatch(c, 0, nodes, n)
			lt.ClearBatch(c)
		}
		return lt.Load(0) == 1 && lt.Load(1) == 0 && lt.Load(2) == 0 && lt.Load(3) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlattenRoundTripCounts(t *testing.T) {
	c := Connection{Batches: []Batch{
		{{Target: "/x", Size: 1}},
		{{Target: "/y", Size: 2}, {Target: "/z", Size: 3}},
	}}
	if got := c.Requests(); got != 3 {
		t.Fatalf("Requests() = %d", got)
	}
}
