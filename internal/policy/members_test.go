package policy

import (
	"fmt"
	"testing"

	"phttp/internal/core"
)

// Membership (churn) behavior: every policy must stop placing new work
// on Down/Draining nodes, resume on NodeUp, and — for the LARD family —
// honor the cold-start/warm-up mapping option.

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

func TestLARDWarmRejoinKeepsMapping(t *testing.T) {
	l := NewLARD(2, testCache, DefaultParams())
	l.DownColdStart = false
	r := req("/churn/warm", 100)
	_, n0 := openConn(t, l, 1, r)
	l.NodeDown(n0)
	if !l.Mapping().IsMapped(r.ID, n0) {
		t.Fatal("warm-up down dropped the mapping")
	}
	// While down, the mapped-but-ineligible node must not attract the
	// target.
	_, n := openConn(t, l, 2, r)
	if n == n0 {
		t.Fatalf("warm mapping steered connection to down node %d", n0)
	}
	// After rejoin the kept mapping attracts the target again.
	l.NodeUp(n0)
	_, n = openConn(t, l, 3, r)
	if n != n0 {
		t.Fatalf("rejoined warm node %d did not win its mapped target (got %d)", n0, n)
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
	// Warm-up mode: mapping survives Down but stops attracting work.
	l.DownColdStart = false
	l.NodeDown(n0)
	if !l.Mapping().IsMapped(r.ID, n0) {
		t.Fatal("warm-up down dropped the server set entry")
	}
	for i := 0; i < 10; i++ {
		_, n := openConn(t, l, core.ConnID(10+i), r)
		if n == n0 {
			t.Fatalf("server set steered connection to down node %d", n0)
		}
	}
	// Cold mode drops the entries.
	l.DownColdStart = true
	l.NodeDown(core.NodeID((int(n0) + 1) % 3))
	if l.Mapping().MappedTargets(core.NodeID((int(n0)+1)%3)) != 0 {
		t.Fatal("cold-start down kept mappings")
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

func TestP2CMembership(t *testing.T) {
	p := NewP2C(4, 1)
	r := req("/churn/p2c", 10)
	a, b := p.candidates(uint64(r.ID))
	// One candidate down: the other must win regardless of load.
	p.NodeDown(a)
	for i := 0; i < 5; i++ {
		_, n := openConn(t, p, core.ConnID(i+1), r)
		if n != b {
			t.Fatalf("with candidate %d down, got node %d, want %d", a, n, b)
		}
	}
	// Both candidates down: least-loaded eligible node.
	p.NodeDown(b)
	_, n := openConn(t, p, 100, r)
	if n == a || n == b {
		t.Fatalf("both candidates down, still picked candidate %d", n)
	}
	// Everything down: degrade to the hash choice rather than NoNode.
	for i := 0; i < 4; i++ {
		p.NodeDown(core.NodeID(i))
	}
	if _, n := openConn(t, p, 101, r); n < 0 || n > 3 {
		t.Fatalf("degraded P2C pick: %d", n)
	}
}

func TestBoundedCHMembership(t *testing.T) {
	b := NewBoundedCH(4, 64, 1.25, 1)
	r := req("/churn/bch", 10)
	_, home := openConn(t, b, 1, r)
	// The home node leaves; its arcs shift to other nodes.
	b.NodeDraining(home)
	for i := 0; i < 8; i++ {
		_, n := openConn(t, b, core.ConnID(10+i), r)
		if n == home {
			t.Fatalf("ring pick landed on draining node %d", home)
		}
	}
	// It rejoins and its arcs come back: the same target returns home
	// (modulo the bound, generous here).
	b.NodeUp(home)
	_, n := openConn(t, b, 100, r)
	if n != home {
		t.Fatalf("rejoined node %d did not regain its arc (got %d)", home, n)
	}
	// All nodes out: the ring walk finds nothing, the fallback still
	// returns a node.
	for i := 0; i < 4; i++ {
		b.NodeDown(core.NodeID(i))
	}
	if _, n := openConn(t, b, 101, r); n < 0 || n > 3 {
		t.Fatalf("degraded boundedCH pick: %d", n)
	}
}
