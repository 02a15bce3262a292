package cluster

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
)

// newTestPeerTier builds one sharded tier member with its own policy and
// interner, listener bound but links not yet established.
func newTestPeerTier(t *testing.T, fe, frontends, nodes int) (*peerTier, *core.Interner) {
	t.Helper()
	pol, err := dispatch.Build(dispatch.Spec{Policy: "lard", Nodes: nodes, CacheBytes: 8 << 20})
	if err != nil {
		t.Fatalf("build policy: %v", err)
	}
	tier, err := newPeerTier(FrontEndConfig{
		Nodes: nodes, Frontends: frontends, FEID: fe,
		State: dstate.ModeSharded, SyncInterval: 5 * time.Millisecond,
	}, pol)
	if err != nil {
		t.Fatalf("newPeerTier fe %d: %v", fe, err)
	}
	in := core.NewInterner()
	tier.finishInit(in)
	return tier, in
}

// waitFor polls cond until it holds or the deadline passes (the sharded
// PCLOSE/PMOVE RPCs are fire-and-forget, so owner-side effects land
// asynchronously).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A request whose target a full capped interner turned away (NoTarget)
// has no shard: each member decides it locally, by load, with no POPEN
// round trip to whichever member owns ID 0's ring point.
func TestPeerTierDecidesOverflowLocally(t *testing.T) {
	const nodes = 2
	t0, _ := newTestPeerTier(t, 0, 2, nodes)
	defer t0.Close()
	t1, _ := newTestPeerTier(t, 1, 2, nodes)
	defer t1.Close()
	if err := t0.connect([]string{"", t1.Addr()}); err != nil {
		t.Fatalf("fe0 connect: %v", err)
	}
	if err := t1.connect([]string{t0.Addr(), ""}); err != nil {
		t.Fatalf("fe1 connect: %v", err)
	}
	overflow := core.Request{Target: "/past-the-cap", Size: 4096}
	for fe, tier := range []*peerTier{t0, t1} {
		c := core.NewConnState(core.ConnID(fe + 1))
		tier.ConnOpen(c, overflow)
		if int(c.OwnerFE) != fe || tier.remoteOpens.Load() != 0 || tier.fallbacks.Load() != 0 {
			t.Errorf("fe %d: overflow open owned by %d, %d remote opens, %d fallbacks; want local, 0, 0",
				fe, c.OwnerFE, tier.remoteOpens.Load(), tier.fallbacks.Load())
		}
		tier.ConnClose(c)
	}
}

// TestPeerTierShardedRPCs drives the full sharded state-transaction
// surface over a real two-member tier: remote open (POPEN/PNODE),
// pinned batch assignment, move (PMOVE) and close (PCLOSE) on the owner,
// the local-owner fast path, and — after the owner dies — the
// availability-first fallback with its counter.
func TestPeerTierShardedRPCs(t *testing.T) {
	const nodes = 2
	t0, in0 := newTestPeerTier(t, 0, 2, nodes)
	defer t0.Close()
	t1, _ := newTestPeerTier(t, 1, 2, nodes)
	if err := t0.connect([]string{"", t1.Addr()}); err != nil {
		t.Fatalf("fe0 connect: %v", err)
	}
	if err := t1.connect([]string{t0.Addr(), ""}); err != nil {
		t.Fatalf("fe1 connect: %v", err)
	}
	if t0.Mode() != dstate.ModeSharded {
		t.Fatalf("Mode = %v", t0.Mode())
	}

	// One target owned by each member (the ring spreads a handful of
	// distinct names across two front-ends).
	var remoteReq, localReq core.Request
	for i := 0; remoteReq.Target == "" || localReq.Target == ""; i++ {
		if i > 4096 {
			t.Fatal("owner ring never produced both owners")
		}
		tg := core.Target(fmt.Sprintf("/obj/%d", i))
		r := core.Request{Target: tg, ID: in0.Intern(tg), Size: 4096}
		if t0.Owner(r.ID) == 1 && remoteReq.Target == "" {
			remoteReq = r
		}
		if t0.Owner(r.ID) == 0 && localReq.Target == "" {
			localReq = r
		}
	}

	ownerConns := func(tier *peerTier) int {
		total := 0
		for n := 0; n < nodes; n++ {
			total += tier.pol.Loads().LocalConns(core.NodeID(n))
		}
		return total
	}

	// Remote-owned connection: the open RPC is synchronous, so by return
	// the owner's shard carries the charge and we know the node.
	rc := core.NewConnState(1)
	n := t0.ConnOpen(rc, remoteReq)
	if rc.OwnerFE != 1 || t0.remoteOpens.Load() != 1 {
		t.Fatalf("remote open: OwnerFE %d remoteOpens %d", rc.OwnerFE, t0.remoteOpens.Load())
	}
	if got := ownerConns(t1); got != 1 {
		t.Fatalf("owner charges %d conns after open, want 1", got)
	}
	as := t0.AssignBatch(rc, core.Batch{remoteReq, remoteReq})
	for i, a := range as {
		if a.Node != rc.Handling {
			t.Fatalf("assignment %d went to %d, not the pinned node %d", i, a.Node, rc.Handling)
		}
	}
	t0.BatchDone(rc) // remote-owned: must be a safe no-op
	to := core.NodeID((int(n) + 1) % nodes)
	t0.MoveConn(rc, to)
	if rc.Handling != to {
		t.Fatalf("MoveConn left Handling at %d", rc.Handling)
	}
	waitFor(t, "PMOVE to land on the owner", func() bool {
		return t1.pol.Loads().LocalConns(to) == 1
	})
	t0.ConnClose(rc)
	waitFor(t, "PCLOSE to land on the owner", func() bool {
		return ownerConns(t1) == 0
	})

	// Locally owned connection: the whole lifecycle stays on our shard.
	lc := core.NewConnState(2)
	ln := t0.ConnOpen(lc, localReq)
	if lc.OwnerFE != 0 || ownerConns(t0) != 1 {
		t.Fatalf("local open: OwnerFE %d, %d conns", lc.OwnerFE, ownerConns(t0))
	}
	t0.AssignBatch(lc, core.Batch{localReq})
	t0.BatchDone(lc)
	t0.MoveConn(lc, core.NodeID((int(ln)+1)%nodes))
	t0.ReportDiskQueue(0, 3)
	t0.ConnClose(lc)
	if got := ownerConns(t0); got != 0 {
		t.Fatalf("local close left %d conns charged", got)
	}

	// Owner death: opens fall back to local decisions, fire-and-forget
	// transactions count fallbacks instead of blocking.
	t1.Close()
	rc2 := core.NewConnState(3)
	t0.ConnOpen(rc2, remoteReq)
	if rc2.OwnerFE != 0 {
		t.Fatalf("fallback open: OwnerFE %d, want local 0", rc2.OwnerFE)
	}
	orphan := core.NewConnState(4)
	orphan.OwnerFE = 1
	orphan.Handling = 0
	t0.MoveConn(orphan, 1)
	t0.ConnClose(orphan)
	if got := t0.Fallbacks(); got < 3 {
		t.Fatalf("Fallbacks = %d, want >= 3 (open, move, close)", got)
	}
	t0.ConnClose(rc2)
}

// TestPeerTierRejectsNegativeSize sends a tier member the negative sizes a
// hostile or broken peer can put on the wire. A POPEN with one drops the
// session, like any malformed RPC; a PMAPD with one is ignored and the
// session carries on. Neither reaches the mapping, whose Insert panics on
// a negative size.
func TestPeerTierRejectsNegativeSize(t *testing.T) {
	tier, in := newTestPeerTier(t, 0, 2, 2)
	defer tier.Close()
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", tier.Addr())
		if err != nil {
			t.Fatalf("dial peer listener: %v", err)
		}
		if _, err := io.WriteString(conn, "HELLO PEER 1\n"); err != nil {
			t.Fatalf("hello: %v", err)
		}
		return conn
	}

	conn := dial()
	defer conn.Close()
	if _, err := io.WriteString(conn, "POPEN 1 7 -5 /x\n"); err != nil {
		t.Fatalf("write POPEN: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("POPEN with a negative size: read %d bytes, err %v; want the session dropped", n, err)
	}

	conn2 := dial()
	defer conn2.Close()
	if _, err := io.WriteString(conn2, "PMAPD 0 -5 /neg\nPMAPD 0 10 /ok\n"); err != nil {
		t.Fatalf("write PMAPD: %v", err)
	}
	m := tier.pol.(dstate.MappingPolicy).Mapping()
	ok := in.Intern("/ok")
	waitFor(t, "the valid PMAPD after the negative one", func() bool { return m.IsMapped(ok, 0) })
	if m.IsMapped(in.Intern("/neg"), 0) {
		t.Error("PMAPD with a negative size was applied")
	}
}
