package dispatch

import (
	"testing"

	"phttp/internal/core"
	"phttp/internal/policy"
)

func churnEngine(t *testing.T, pol string, nodes int) *Engine {
	t.Helper()
	e, err := NewEngine(Spec{Policy: pol, Nodes: nodes, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("NewEngine(%s): %v", pol, err)
	}
	return e
}

func TestEngineMembershipView(t *testing.T) {
	e := churnEngine(t, "lard", 3)
	if !e.HasUp() || e.upNodes.Load() != 3 {
		t.Fatalf("fresh engine: HasUp=%v UpNodes=%d", e.HasUp(), e.upNodes.Load())
	}
	e.SetNodeDown(1)
	e.SetNodeDown(1) // idempotent
	if e.upNodes.Load() != 2 || e.nodeIsUp(1) || !e.NodeIsDown(1) {
		t.Fatalf("after down(1): UpNodes=%d up=%v down=%v", e.upNodes.Load(), e.nodeIsUp(1), e.NodeIsDown(1))
	}
	e.SetNodeDraining(2)
	if e.upNodes.Load() != 1 || e.NodeIsDown(2) {
		t.Fatalf("after drain(2): UpNodes=%d", e.upNodes.Load())
	}
	e.SetNodeDown(0)
	if e.HasUp() {
		t.Fatal("all nodes down/draining but HasUp still true")
	}
	e.SetNodeUp(1)
	if !e.HasUp() || e.upNodes.Load() != 1 {
		t.Fatalf("after rejoin: UpNodes=%d", e.upNodes.Load())
	}
}

func TestEngineForwardsTransitionsToPolicy(t *testing.T) {
	e := churnEngine(t, "lard", 2)
	r := internedReq(e.Interner(), "/m/a", 100)
	c, n := e.ConnOpen(r)
	l := e.Policy().(*policy.LARD)
	if !l.Mapping().IsMapped(r.ID, n) {
		t.Fatalf("target not mapped on %d", n)
	}
	e.SetNodeDown(n)
	if l.Mapping().MappedTargets(n) != 0 {
		t.Fatal("policy did not receive the down transition (mapping survived)")
	}
	e.ConnClose(c)
}

func TestEnginePickUp(t *testing.T) {
	e := churnEngine(t, "wrr", 3)
	// Load node 0 so pickUp prefers an idle node.
	c0, _ := e.ConnOpen(internedReq(e.Interner(), "/m/p0", 10))
	if got := e.pickUp(core.NoNode); got == core.NoNode {
		t.Fatal("pickUp found nothing on a healthy cluster")
	}
	e.SetNodeDown(1)
	e.SetNodeDown(2)
	if got := e.pickUp(core.NoNode); got != 0 {
		t.Fatalf("pickUp = %d, want the only up node 0", got)
	}
	if got := e.pickUp(0); got != core.NoNode {
		t.Fatalf("pickUp excluding the only up node = %d, want NoNode", got)
	}
	e.SetNodeDown(0)
	if got := e.pickUp(core.NoNode); got != core.NoNode {
		t.Fatalf("pickUp with no up nodes = %d, want NoNode", got)
	}
	e.ConnClose(c0)
}

func TestEngineMoveConn(t *testing.T) {
	e := churnEngine(t, "wrr", 2)
	c, n := e.ConnOpen(internedReq(e.Interner(), "/m/mv", 10))
	to := core.NodeID(1 - int(n))
	loads := e.Policy().Loads()
	if loads.Conns(n) != 1 || loads.Conns(to) != 0 {
		t.Fatalf("pre-move conns: %d/%d", loads.Conns(n), loads.Conns(to))
	}
	e.moveConn(c, to)
	if c.Handling() != to {
		t.Fatalf("Handling = %d after move, want %d", c.Handling(), to)
	}
	if loads.Conns(n) != 0 || loads.Conns(to) != 1 {
		t.Fatalf("post-move conns: %d/%d", loads.Conns(n), loads.Conns(to))
	}
	e.moveConn(c, to) // no-op: already there
	e.ConnClose(c)
	e.moveConn(c, n) // no-op: closed
	if loads.Conns(n) != 0 && loads.Conns(to) != 0 {
		t.Fatal("moveConn on closed connection re-charged a node")
	}
}

// TestEngineRedispatch pins the re-dispatch rule both worlds call for work
// lost on a dead node: within budget it names the least-loaded Up node
// other than the dead one, and moves the connection only off a Down
// handling node.
func TestEngineRedispatch(t *testing.T) {
	for _, tc := range []struct {
		name          string
		lostOnHandler bool // the dead node is the connection's handling node
		allDown       bool
		tries, budget int
		wantNode      bool
		wantMove      bool
	}{
		{name: "budget spent", lostOnHandler: true, tries: 3, budget: 2},
		{name: "no Up node", lostOnHandler: true, allDown: true, tries: 1, budget: 2},
		{name: "handling node Up", tries: 1, budget: 2, wantNode: true},
		{name: "handling node Down", lostOnHandler: true, tries: 2, budget: 2, wantNode: true, wantMove: true},
		{name: "move without a retry", lostOnHandler: true, wantNode: true, wantMove: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := churnEngine(t, "wrr", 3)
			c, h := e.ConnOpen(internedReq(e.Interner(), "/m/rd", 10))
			defer e.ConnClose(c)
			dead := (h + 1) % 3
			if tc.lostOnHandler {
				dead = h
			}
			e.SetNodeDown(dead)
			if tc.allDown {
				for n := 0; n < 3; n++ {
					e.SetNodeDown(core.NodeID(n))
				}
			}
			got := e.Redispatch(c, dead, tc.tries, tc.budget)
			if (got != core.NoNode) != tc.wantNode {
				t.Fatalf("Redispatch = %v, want a node: %v", got, tc.wantNode)
			}
			if got != core.NoNode && (got == dead || !e.nodeIsUp(got)) {
				t.Fatalf("Redispatch = %v: not an Up node other than dead %v", got, dead)
			}
			loads := e.Policy().Loads()
			if moved := c.Handling() != h; moved != tc.wantMove {
				t.Fatalf("handling %v -> %v, want moved: %v", h, c.Handling(), tc.wantMove)
			}
			if tc.wantMove && (c.Handling() != got || loads.Conns(h) != 0 || loads.Conns(got) != 1) {
				t.Fatalf("moved to %v (Redispatch named %v); conns %d on %v, %d on %v",
					c.Handling(), got, loads.Conns(h), h, loads.Conns(got), got)
			}
		})
	}
}
