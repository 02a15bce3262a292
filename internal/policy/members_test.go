package policy

import (
	"fmt"
	"testing"

	"phttp/internal/core"
)

// Membership (churn) behavior: every policy must stop placing new work
// on Down/Draining nodes, resume on NodeUp, and — for the LARD family —
// drop a Down node's mappings (a crashed back-end restarts cold).

func openConn(t *testing.T, p core.Policy, id core.ConnID, r core.Request) (*core.ConnState, core.NodeID) {
	t.Helper()
	c := core.NewConnState(id)
	n := p.ConnOpen(c, r)
	if n == core.NoNode {
		t.Fatalf("%s: ConnOpen returned NoNode", p.Name())
	}
	return c, n
}

func TestLARDMembership(t *testing.T) {
	l := NewLARD(3, testCache, DefaultParams())
	r := req("/churn/a", 100)
	_, n0 := openConn(t, l, 1, r)

	// The target is mapped on n0; a Down n0 with cold start must lose
	// both the mapping and all new placements.
	if !l.Mapping().IsMapped(r.ID, n0) {
		t.Fatalf("target not mapped on handling node %d", n0)
	}
	l.NodeDown(n0)
	if l.Mapping().MappedTargets(n0) != 0 {
		t.Fatalf("cold-start down kept %d mappings on node %d", l.Mapping().MappedTargets(n0), n0)
	}
	for i := 0; i < 10; i++ {
		_, n := openConn(t, l, core.ConnID(10+i), req(core.Target(fmt.Sprintf("/churn/b%d", i)), 50))
		if n == n0 {
			t.Fatalf("new connection placed on down node %d", n0)
		}
	}

	// Rejoin: the node is eligible again.
	l.NodeUp(n0)
	seen := false
	for i := 0; i < 32 && !seen; i++ {
		_, n := openConn(t, l, core.ConnID(100+i), req(core.Target(fmt.Sprintf("/churn/up%d", i)), 10))
		seen = n == n0
	}
	if !seen {
		t.Fatalf("rejoined node %d never receives connections", n0)
	}
}

func TestLARDDrainingKeepsMapping(t *testing.T) {
	l := NewLARD(2, testCache, DefaultParams())
	r := req("/churn/drain", 100)
	_, n0 := openConn(t, l, 1, r)
	l.NodeDraining(n0)
	if !l.Mapping().IsMapped(r.ID, n0) {
		t.Fatal("draining dropped the mapping")
	}
	_, n := openConn(t, l, 2, r)
	if n == n0 {
		t.Fatalf("new connection placed on draining node %d", n0)
	}
}

func TestLARDAllDownDegrades(t *testing.T) {
	l := NewLARD(2, testCache, DefaultParams())
	l.NodeDown(0)
	l.NodeDown(1)
	// The driver gates admission on HasUp; if a connection slips
	// through anyway the policy must still return some node.
	_, n := openConn(t, l, 1, req("/churn/alldown", 10))
	if n != 0 && n != 1 {
		t.Fatalf("degraded pick returned %d", n)
	}
}

func TestLARDRMembership(t *testing.T) {
	l := NewLARDR(3, testCache, DefaultParams())
	r := req("/churn/lardr", 100)
	_, n0 := openConn(t, l, 1, r)
	if !l.Mapping().IsMapped(r.ID, n0) {
		t.Fatalf("target not mapped on %d", n0)
	}
	// A Down node loses its server-set entries and all new placements.
	l.NodeDown(n0)
	if l.Mapping().MappedTargets(n0) != 0 {
		t.Fatal("down kept mappings")
	}
	for i := 0; i < 10; i++ {
		_, n := openConn(t, l, core.ConnID(10+i), r)
		if n == n0 {
			t.Fatalf("server set steered connection to down node %d", n0)
		}
	}
}

func TestWRRMembership(t *testing.T) {
	w := NewWRR(3)
	w.NodeDown(1)
	for i := 0; i < 12; i++ {
		_, n := openConn(t, w, core.ConnID(i+1), req("/churn/wrr", 10))
		if n == 1 {
			t.Fatal("WRR placed a connection on the down node")
		}
	}
	w.NodeUp(1)
	counts := [3]int{}
	for i := 0; i < 12; i++ {
		_, n := openConn(t, w, core.ConnID(100+i), req("/churn/wrr2", 10))
		counts[n]++
	}
	if counts[1] == 0 {
		t.Fatalf("rejoined node got no connections: %v", counts)
	}
	// All nodes out: WRR degrades to the unfiltered choice.
	w.NodeDown(0)
	w.NodeDown(1)
	w.NodeDraining(2)
	if _, n := openConn(t, w, 999, req("/churn/wrr3", 10)); n < 0 || n > 2 {
		t.Fatalf("degraded WRR pick: %d", n)
	}
}
