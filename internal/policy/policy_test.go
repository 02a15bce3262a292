package policy

import (
	"testing"
	"testing/quick"

	"phttp/internal/core"
)

const testCache = 1 << 20

// testInterner gives the direct-call policy tests the interned IDs the
// dispatch engine would normally supply; one shared interner keeps IDs
// consistent across the policies a test compares.
var testInterner = core.NewInterner()

// req builds an interned request the way the dispatch engine hands them to
// policies.
func req(target core.Target, size int64) core.Request {
	return core.Request{Target: target, ID: testInterner.Intern(target), Size: size}
}

// tid is the interned ID of target, for mapping assertions.
func tid(target core.Target) core.TargetID { return testInterner.Intern(target) }

// --- Figure 4 cost metrics ---

func TestCostBalancing(t *testing.T) {
	p := DefaultParams()
	if got := p.costBalancing(p.LIdle - 1); got != 0 {
		t.Errorf("below L_idle: %v, want 0", got)
	}
	if got := p.costBalancing(p.LIdle); got != 0 {
		t.Errorf("at L_idle: %v, want 0 (L_idle is exclusive lower knee)", got)
	}
	if got := p.costBalancing(p.LIdle + 10); got != 10 {
		t.Errorf("mid-range: %v, want 10", got)
	}
	if got := p.costBalancing(p.LOverload); got != Infinite {
		t.Errorf("at L_overload: %v, want Infinite", got)
	}
	if got := p.costBalancing(p.LOverload + 100); got != Infinite {
		t.Errorf("beyond L_overload: %v, want Infinite", got)
	}
}

func TestCostLocality(t *testing.T) {
	p := DefaultParams()
	if p.costLocality(true) != 0 {
		t.Error("mapped target should cost 0")
	}
	if p.costLocality(false) != p.MissCost {
		t.Error("unmapped target should cost MissCost")
	}
}

func TestCostReplacement(t *testing.T) {
	p := DefaultParams()
	if p.costReplacement(p.LIdle-1, false) != 0 {
		t.Error("underutilized node should have no replacement cost")
	}
	if p.costReplacement(p.LIdle+10, true) != 0 {
		t.Error("mapped target should have no replacement cost")
	}
	if p.costReplacement(p.LIdle+10, false) != p.MissCost {
		t.Error("busy node with unmapped target should cost MissCost")
	}
}

func TestAggregateInfinitePropagates(t *testing.T) {
	p := DefaultParams()
	if p.Aggregate(p.LOverload, true) != Infinite {
		t.Error("overloaded node must have infinite aggregate cost")
	}
}

// Property: for loads below the overload knee, an aggregate with the target
// mapped never exceeds the aggregate with it unmapped at the same load.
func TestAggregateMappedNeverWorse(t *testing.T) {
	p := DefaultParams()
	f := func(load uint8) bool {
		l := float64(int(load) % int(p.LOverload))
		return p.Aggregate(l, true) <= p.Aggregate(l, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- WRR ---

func TestWRRBalancesConnections(t *testing.T) {
	w := NewWRR(4)
	var conns []*core.ConnState
	for i := 0; i < 40; i++ {
		c := core.NewConnState(core.ConnID(i))
		w.ConnOpen(c, req("/same", 1))
		conns = append(conns, c)
	}
	for n := 0; n < 4; n++ {
		if got := w.Loads().Conns(core.NodeID(n)); got != 10 {
			t.Errorf("node %d has %d connections, want 10", n, got)
		}
	}
	for _, c := range conns {
		w.ConnClose(c)
	}
	if w.Loads().Total() != 0 {
		t.Errorf("residual load %v after closing all", w.Loads().Total())
	}
}

func TestWRRIgnoresContent(t *testing.T) {
	w := NewWRR(2)
	// The same target must alternate nodes: WRR is content-blind.
	c1 := core.NewConnState(1)
	n1 := w.ConnOpen(c1, req("/x", 1))
	c2 := core.NewConnState(2)
	n2 := w.ConnOpen(c2, req("/x", 1))
	if n1 == n2 {
		t.Errorf("WRR sent both connections for /x to %v", n1)
	}
}

func TestWRRBatchSticksToHandling(t *testing.T) {
	w := NewWRR(3)
	c := core.NewConnState(1)
	h := w.ConnOpen(c, req("/a", 1))
	batch := core.Batch{req("/b", 1), req("/c", 1)}
	for _, a := range w.AssignBatch(c, batch) {
		if a.Node != h || a.Forward || a.Migrate {
			t.Errorf("WRR assignment %+v, want plain local serve at %v", a, h)
		}
	}
}

// --- basic LARD ---

func openLARD(l *LARD, id core.ConnID, target core.Target) (*core.ConnState, core.NodeID) {
	c := core.NewConnState(id)
	n := l.ConnOpen(c, req(target, 1000))
	return c, n
}

func TestLARDRepeatTargetSticksToNode(t *testing.T) {
	l := NewLARD(4, testCache, DefaultParams())
	_, first := openLARD(l, 1, "/popular")
	for i := 2; i <= 10; i++ {
		_, n := openLARD(l, core.ConnID(i), "/popular")
		if n != first {
			t.Fatalf("request %d for /popular went to %v, want %v (locality)", i, n, first)
		}
	}
}

func TestLARDDistributesDistinctTargets(t *testing.T) {
	l := NewLARD(4, testCache, DefaultParams())
	seen := map[core.NodeID]bool{}
	for i := 0; i < 40; i++ {
		_, n := openLARD(l, core.ConnID(i), core.Target(rune('a'+i)))
		seen[n] = true
	}
	if len(seen) != 4 {
		t.Errorf("distinct targets used %d nodes of 4", len(seen))
	}
}

func TestLARDMovesOffOverloadedNode(t *testing.T) {
	p := DefaultParams()
	l := NewLARD(2, testCache, p)
	// Saturate node holding /hot beyond L_overload.
	var conns []*core.ConnState
	c, hot := openLARD(l, 1, "/hot")
	conns = append(conns, c)
	for i := 2; l.Loads().Load(hot) < p.LOverload; i++ {
		cs := core.NewConnState(core.ConnID(i))
		cs.Handling = hot
		l.Loads().AddConn(hot) // simulate load pinned to the hot node
		conns = append(conns, cs)
	}
	_, n := openLARD(l, 1000, "/hot")
	if n == hot {
		t.Errorf("request for /hot stayed on overloaded node %v", hot)
	}
}

func TestLARDEquivalentPoliciesHTTP10(t *testing.T) {
	// On single-request connections extLARD must make exactly the basic
	// LARD decisions, whatever the mechanism (paper: "the extended LARD
	// policy is equivalent to LARD for HTTP/1.0 requests").
	lard := NewLARD(4, testCache, DefaultParams())
	ext := NewExtLARD(4, testCache, DefaultParams(), core.BEForwarding)
	for i := 0; i < 200; i++ {
		target := core.Target(rune('A' + i%23))
		cl := core.NewConnState(core.ConnID(i))
		ce := core.NewConnState(core.ConnID(i))
		nl := lard.ConnOpen(cl, req(target, 500))
		ne := ext.ConnOpen(ce, req(target, 500))
		if nl != ne {
			t.Fatalf("conn %d (%q): LARD chose %v, extLARD chose %v", i, target, nl, ne)
		}
		lard.AssignBatch(cl, core.Batch{req(target, 500)})
		ext.AssignBatch(ce, core.Batch{req(target, 500)})
		lard.ConnClose(cl)
		ext.ConnClose(ce)
	}
}

// --- extended LARD ---

func TestExtLARDFirstRequestStaysOnHandling(t *testing.T) {
	e := NewExtLARD(4, testCache, DefaultParams(), core.BEForwarding)
	c := core.NewConnState(1)
	h := e.ConnOpen(c, req("/page", 1000))
	as := e.AssignBatch(c, core.Batch{req("/page", 1000)})
	if as[0].Node != h || as[0].Forward {
		t.Errorf("first request assignment %+v, want local at %v", as[0], h)
	}
}

func TestExtLARDServesLocallyWhenDiskIdle(t *testing.T) {
	e := NewExtLARD(2, testCache, DefaultParams(), core.BEForwarding)
	// Map /obj on node 1 via another connection.
	other := core.NewConnState(7)
	e.ConnOpen(other, req("/obj", 1000))
	objNode := other.Handling

	c := core.NewConnState(1)
	e.ConnOpen(c, req("/page", 1000))
	if c.Handling == objNode {
		t.Skip("both targets landed on one node; pick a different layout")
	}
	// Disk idle everywhere (no reports): serve locally, replicate.
	e.AssignBatch(c, core.Batch{req("/page", 1000)})
	as := e.AssignBatch(c, core.Batch{req("/obj", 1000)})
	if as[0].Node != c.Handling || as[0].Forward {
		t.Errorf("disk-idle subsequent request: %+v, want local serve", as[0])
	}
	if !e.Mapping().IsMapped(tid("/obj"), c.Handling) {
		t.Error("locally served target not replicated into the mapping")
	}
}

func TestExtLARDForwardsWhenDiskBusyAndMappedElsewhere(t *testing.T) {
	e := NewExtLARD(2, testCache, DefaultParams(), core.BEForwarding)
	other := core.NewConnState(7)
	e.ConnOpen(other, req("/obj", 1000))
	objNode := other.Handling

	c := core.NewConnState(1)
	e.ConnOpen(c, req("/page", 1000))
	h := c.Handling
	if h == objNode {
		t.Skip("layout collision")
	}
	e.AssignBatch(c, core.Batch{req("/page", 1000)})
	// Handling node's disk is busy: the policy must forward to objNode.
	e.ReportDiskQueue(h, 10)
	as := e.AssignBatch(c, core.Batch{req("/obj", 1000)})
	if !as[0].Forward || as[0].Node != objNode {
		t.Errorf("busy-disk foreign request: %+v, want forward to %v", as[0], objNode)
	}
	// Remote node carries 1/N load for the batch.
	if got := e.Loads().Load(objNode); got != 1+1.0 {
		// objNode has its own connection (1) plus 1/1 for this batch.
		t.Errorf("remote node load = %v, want 2.0", got)
	}
	// The next batch releases the fractional charge.
	e.ReportDiskQueue(h, 0)
	e.AssignBatch(c, core.Batch{req("/page", 1000)})
	if got := e.Loads().Load(objNode); got != 1 {
		t.Errorf("remote node load = %v after next batch, want 1.0", got)
	}
}

func TestExtLARDServesColdTargetLocallyUnderBusyDisk(t *testing.T) {
	e := NewExtLARD(2, testCache, DefaultParams(), core.BEForwarding)
	c := core.NewConnState(1)
	e.ConnOpen(c, req("/page", 1000))
	h := c.Handling
	e.AssignBatch(c, core.Batch{req("/page", 1000)})
	e.ReportDiskQueue(h, 10)
	// /cold is mapped nowhere: only candidate is the handling node.
	as := e.AssignBatch(c, core.Batch{req("/cold", 1000)})
	if as[0].Node != h || as[0].Forward {
		t.Errorf("cold target under busy disk: %+v, want local serve", as[0])
	}
}

func TestExtLARDOneNNLoadAccounting(t *testing.T) {
	e := NewExtLARD(3, testCache, DefaultParams(), core.BEForwarding)
	// Map /o1 -> some node, /o2 -> another.
	a := core.NewConnState(10)
	e.ConnOpen(a, req("/o1", 100))
	b := core.NewConnState(11)
	e.ConnOpen(b, req("/o2", 100))
	n1, n2 := a.Handling, b.Handling

	c := core.NewConnState(1)
	e.ConnOpen(c, req("/page", 100))
	h := c.Handling
	if h == n1 || h == n2 || n1 == n2 {
		t.Skip("layout collision")
	}
	e.AssignBatch(c, core.Batch{req("/page", 100)})
	e.ReportDiskQueue(h, 10)
	// Batch of 4: two forwarded to n1, one to n2, one local.
	batch := core.Batch{
		req("/o1", 100), req("/o1", 100),
		req("/o2", 100), req("/page", 100),
	}
	e.AssignBatch(c, batch)
	if got, want := e.Loads().Load(n1), 1+2.0/4; got != want {
		t.Errorf("n1 load = %v, want %v", got, want)
	}
	if got, want := e.Loads().Load(n2), 1+1.0/4; got != want {
		t.Errorf("n2 load = %v, want %v", got, want)
	}
	e.BatchDone(c)
	if e.Loads().Load(n1) != 1 || e.Loads().Load(n2) != 1 {
		t.Error("BatchDone did not release 1/N charges")
	}
}

func TestExtLARDMultiHandoffMigrates(t *testing.T) {
	e := NewExtLARD(2, testCache, DefaultParams(), core.MultipleHandoff)
	other := core.NewConnState(7)
	e.ConnOpen(other, req("/obj", 1000))
	objNode := other.Handling

	c := core.NewConnState(1)
	e.ConnOpen(c, req("/page", 1000))
	h := c.Handling
	if h == objNode {
		t.Skip("layout collision")
	}
	e.AssignBatch(c, core.Batch{req("/page", 1000)})
	e.ReportDiskQueue(h, 10)
	as := e.AssignBatch(c, core.Batch{req("/obj", 1000)})
	if !as[0].Migrate || as[0].Node != objNode || as[0].From != h {
		t.Errorf("multi-handoff assignment %+v, want migration %v->%v", as[0], h, objNode)
	}
	if c.Handling != objNode {
		t.Error("connection handling node not updated on migration")
	}
	if e.Loads().Conns(objNode) != 2 || e.Loads().Conns(h) != 0 {
		t.Error("connection load did not follow the migration")
	}
}

func TestExtLARDZeroCostReassignsFreely(t *testing.T) {
	e := NewExtLARD(2, testCache, DefaultParams(), core.ZeroCostHandoff)
	other := core.NewConnState(7)
	e.ConnOpen(other, req("/obj", 1000))
	objNode := other.Handling

	c := core.NewConnState(1)
	e.ConnOpen(c, req("/page", 1000))
	if c.Handling == objNode {
		t.Skip("layout collision")
	}
	e.AssignBatch(c, core.Batch{req("/page", 1000)})
	// Even with idle disks, zero-cost reassignment chases locality.
	as := e.AssignBatch(c, core.Batch{req("/obj", 1000)})
	if as[0].Node != objNode {
		t.Errorf("zero-cost assignment went to %v, want %v", as[0].Node, objNode)
	}
}

func TestExtLARDSingleHandoffNeverMoves(t *testing.T) {
	e := NewExtLARD(4, testCache, DefaultParams(), core.SingleHandoff)
	c := core.NewConnState(1)
	h := e.ConnOpen(c, req("/page", 1000))
	e.ReportDiskQueue(h, 50)
	batch := core.Batch{
		req("/page", 1000), req("/x", 1),
		req("/y", 1), req("/z", 1),
	}
	for _, a := range e.AssignBatch(c, batch) {
		if a.Node != h || a.Forward || a.Migrate {
			t.Errorf("single-handoff assignment %+v, want pinned to %v", a, h)
		}
	}
}

func TestExtLARDConnCloseReleasesEverything(t *testing.T) {
	e := NewExtLARD(2, testCache, DefaultParams(), core.BEForwarding)
	other := core.NewConnState(7)
	e.ConnOpen(other, req("/obj", 1000))

	c := core.NewConnState(1)
	e.ConnOpen(c, req("/page", 1000))
	e.AssignBatch(c, core.Batch{req("/page", 1000)})
	e.ReportDiskQueue(c.Handling, 10)
	e.AssignBatch(c, core.Batch{req("/obj", 1000)})
	e.ConnClose(c)
	e.ConnClose(other)
	if e.Loads().Total() != 0 {
		t.Errorf("residual load %v after closing all connections", e.Loads().Total())
	}
}

func TestExtLARDAssignBeforeOpenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AssignBatch before ConnOpen did not panic")
		}
	}()
	e := NewExtLARD(2, testCache, DefaultParams(), core.BEForwarding)
	e.AssignBatch(core.NewConnState(1), core.Batch{req("/x", 1)})
}

// Property: every assignment names a valid node, and loads never go
// negative, across random request streams.
func TestExtLARDAssignmentsAlwaysValid(t *testing.T) {
	f := func(stream []uint8, diskBusy bool) bool {
		e := NewExtLARD(3, testCache, DefaultParams(), core.BEForwarding)
		if diskBusy {
			for n := 0; n < 3; n++ {
				e.ReportDiskQueue(core.NodeID(n), 10)
			}
		}
		var conns []*core.ConnState
		for i, b := range stream {
			target := core.Target(rune('a' + b%17))
			if i%4 == 0 || len(conns) == 0 {
				c := core.NewConnState(core.ConnID(i))
				n := e.ConnOpen(c, req(target, 100))
				if n < 0 || int(n) >= 3 {
					return false
				}
				conns = append(conns, c)
			}
			c := conns[int(b)%len(conns)]
			for _, a := range e.AssignBatch(c, core.Batch{req(target, 100)}) {
				if a.Node < 0 || int(a.Node) >= 3 {
					return false
				}
			}
		}
		for _, c := range conns {
			e.ConnClose(c)
		}
		for n := 0; n < 3; n++ {
			if e.Loads().Load(core.NodeID(n)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// pick must never choose an overloaded node while an acceptable one exists.
func TestPickAvoidsInfiniteCost(t *testing.T) {
	p := DefaultParams()
	e := NewExtLARD(3, testCache, p, core.BEForwarding)
	lt := e.Loads()
	// Push node 0 past overload.
	for lt.Load(0) < p.LOverload {
		lt.AddFraction(0, 10)
	}
	c := core.NewConnState(1)
	if n := e.ConnOpen(c, req("/t", 1)); n == 0 {
		t.Error("ConnOpen chose the overloaded node")
	}
}
