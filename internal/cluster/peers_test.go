package cluster

import (
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/policy"
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

// ownerConns sums the connections a member charges on its own shard.
func ownerConns(tier *peerTier) int {
	loads := tier.member.Policy().Loads()
	total := 0
	for n := 0; n < loads.Nodes(); n++ {
		total += loads.LocalConns(core.NodeID(n))
	}
	return total
}

// connectPair links two tier members to each other.
func connectPair(t *testing.T, t0, t1 *peerTier) {
	t.Helper()
	if err := t0.connect([]string{"", t1.Addr()}); err != nil {
		t.Fatalf("fe0 connect: %v", err)
	}
	if err := t1.connect([]string{t0.Addr(), ""}); err != nil {
		t.Fatalf("fe1 connect: %v", err)
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
	connectPair(t, t0, t1)
	overflow := core.Request{Target: "/past-the-cap", Size: 4096}
	for fe, tier := range []*peerTier{t0, t1} {
		m := tier.member
		c := core.NewConnState(core.ConnID(fe + 1))
		m.ConnOpen(c, overflow)
		if int(c.OwnerFE) != fe || m.RemoteOpens() != 0 || m.Fallbacks() != 0 {
			t.Errorf("fe %d: overflow open owned by %d, %d remote opens, %d fallbacks; want local, 0, 0",
				fe, c.OwnerFE, m.RemoteOpens(), m.Fallbacks())
		}
		m.ConnClose(c)
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
	connectPair(t, t0, t1)
	m0 := t0.member
	ring := policy.NewOwnerRing(2, 0, dstate.ShardRingSeed)

	// One target owned by each member (the ring spreads a handful of
	// distinct names across two front-ends).
	var remoteReq, localReq core.Request
	for i := 0; remoteReq.Target == "" || localReq.Target == ""; i++ {
		if i > 4096 {
			t.Fatal("owner ring never produced both owners")
		}
		tg := core.Target(fmt.Sprintf("/obj/%d", i))
		r := core.Request{Target: tg, ID: in0.Intern(tg), Size: 4096}
		if ring.Owner(r.ID) == 1 && remoteReq.Target == "" {
			remoteReq = r
		}
		if ring.Owner(r.ID) == 0 && localReq.Target == "" {
			localReq = r
		}
	}

	// Remote-owned connection: the open RPC is synchronous, so by return
	// the owner's shard carries the charge and we know the node.
	rc := core.NewConnState(1)
	n := m0.ConnOpen(rc, remoteReq)
	if rc.OwnerFE != 1 || m0.RemoteOpens() != 1 {
		t.Fatalf("remote open: OwnerFE %d remoteOpens %d", rc.OwnerFE, m0.RemoteOpens())
	}
	if got := ownerConns(t1); got != 1 {
		t.Fatalf("owner charges %d conns after open, want 1", got)
	}
	as := m0.AssignBatch(rc, core.Batch{remoteReq, remoteReq})
	for i, a := range as {
		if a.Node != rc.Handling {
			t.Fatalf("assignment %d went to %d, not the pinned node %d", i, a.Node, rc.Handling)
		}
	}
	m0.BatchDone(rc) // remote-owned: must be a safe no-op
	to := core.NodeID((int(n) + 1) % nodes)
	m0.MoveConn(rc, to)
	if rc.Handling != to {
		t.Fatalf("MoveConn left Handling at %d", rc.Handling)
	}
	waitFor(t, "PMOVE to land on the owner", func() bool {
		return t1.member.Policy().Loads().LocalConns(to) == 1
	})
	m0.ConnClose(rc)
	waitFor(t, "PCLOSE to land on the owner", func() bool {
		return ownerConns(t1) == 0
	})

	// Locally owned connection: the whole lifecycle stays on our shard.
	lc := core.NewConnState(2)
	ln := m0.ConnOpen(lc, localReq)
	if lc.OwnerFE != 0 || ownerConns(t0) != 1 {
		t.Fatalf("local open: OwnerFE %d, %d conns", lc.OwnerFE, ownerConns(t0))
	}
	m0.AssignBatch(lc, core.Batch{localReq})
	m0.BatchDone(lc)
	m0.MoveConn(lc, core.NodeID((int(ln)+1)%nodes))
	m0.ReportDiskQueue(0, 3)
	m0.ConnClose(lc)
	if got := ownerConns(t0); got != 0 {
		t.Fatalf("local close left %d conns charged", got)
	}

	// Owner death: opens fall back to local decisions, fire-and-forget
	// transactions count fallbacks instead of blocking.
	t1.Close()
	rc2 := core.NewConnState(3)
	m0.ConnOpen(rc2, remoteReq)
	if rc2.OwnerFE != 0 {
		t.Fatalf("fallback open: OwnerFE %d, want local 0", rc2.OwnerFE)
	}
	orphan := core.NewConnState(4)
	orphan.OwnerFE = 1
	orphan.Handling = 0
	m0.MoveConn(orphan, 1)
	m0.ConnClose(orphan)
	if got := m0.Fallbacks(); got < 3 {
		t.Fatalf("Fallbacks = %d, want >= 3 (open, move, close)", got)
	}
	m0.ConnClose(rc2)
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
	m := tier.member.Policy().(dstate.MappingPolicy).Mapping()
	ok := in.Intern("/ok")
	waitFor(t, "the valid PMAPD after the negative one", func() bool { return m.IsMapped(ok, 0) })
	if m.IsMapped(in.Intern("/neg"), 0) {
		t.Error("PMAPD with a negative size was applied")
	}
}

// TestPeerTierRejectsHostileLoadVector sends a tier member load vectors no
// member can have produced — NaN, infinite, negative, a connection count
// below zero — then a valid one from another member. Only the valid vector
// reaches the remote load base: one poisoned entry would otherwise turn
// every least-loaded comparison on the member. An origin outside the tier
// is refused too.
func TestPeerTierRejectsHostileLoadVector(t *testing.T) {
	tier, in := newTestPeerTier(t, 0, 3, 2)
	defer tier.Close()
	dial := func(fe int) net.Conn {
		conn, err := net.Dial("tcp", tier.Addr())
		if err != nil {
			t.Fatalf("dial peer listener: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
		if _, err := fmt.Fprintf(conn, "HELLO PEER %d\n", fe); err != nil {
			t.Fatalf("hello: %v", err)
		}
		return conn
	}
	m := tier.member.Policy().(dstate.MappingPolicy).Mapping()

	hostile := dial(2)
	if _, err := io.WriteString(hostile, "PLOADV 2 2 1 -3 0 0\nPLOADV 2 2 -1 0 0 0\n"+
		"PLOADV 2 2 Inf 0 0 0\nPLOADV 2 2 NaN 0 0 0\nPMAPD 0 10 /sync\n"); err != nil {
		t.Fatalf("write hostile vectors: %v", err)
	}
	// Lines of one session apply in order: once the PMAPD behind them has
	// landed, so has whatever the vectors did.
	sync := in.Intern("/sync")
	waitFor(t, "the PMAPD behind the hostile vectors", func() bool { return m.IsMapped(sync, 0) })

	valid := dial(1)
	if _, err := io.WriteString(valid, "PLOADV 1 2 1.5 2 0.25 1\n"); err != nil {
		t.Fatalf("write valid vector: %v", err)
	}
	lt := tier.member.Policy().Loads()
	waitFor(t, "the valid vector", func() bool { return lt.Conns(1) != 0 })
	if l0, l1, c0, c1 := lt.Load(0), lt.Load(1), lt.Conns(0), lt.Conns(1); l0 != 1.5 || l1 != 0.25 || c0 != 2 || c1 != 1 {
		t.Errorf("remote base: loads %v %v, conns %d %d; want 1.5 0.25, 2 1 (the valid vector alone)", l0, l1, c0, c1)
	}

	outside := dial(7)
	if _, err := io.WriteString(outside, "POPEN 7 1 10 /x\n"); err != nil {
		t.Fatalf("write POPEN: %v", err)
	}
	outside.SetReadDeadline(time.Now().Add(2 * time.Second))
	// Dropped at its HELLO, the session may end in a reset: the POPEN was
	// never read.
	if n, err := outside.Read(make([]byte, 64)); n > 0 || err == nil || os.IsTimeout(err) {
		t.Fatalf("POPEN from front-end 7 of 3: read %d bytes, err %v; want the session dropped", n, err)
	}
}

// TestPeerTierReleasesLostPeer: an owner releases the connections it holds
// for a peer whose session ends. The lost peer never sends their PCLOSE
// lines, so without the release they stay charged for good.
func TestPeerTierReleasesLostPeer(t *testing.T) {
	const nodes = 2
	t0, _ := newTestPeerTier(t, 0, 2, nodes)
	defer t0.Close()
	t1, in1 := newTestPeerTier(t, 1, 2, nodes)
	connectPair(t, t0, t1)
	ring := policy.NewOwnerRing(2, 0, dstate.ShardRingSeed)
	for i, opened := 0, 0; opened < 3; i++ {
		tg := core.Target(fmt.Sprintf("/lost/%d", i))
		r := core.Request{Target: tg, ID: in1.Intern(tg), Size: 4096}
		if ring.Owner(r.ID) != 0 {
			continue
		}
		t1.member.ConnOpen(core.NewConnState(core.ConnID(i+1)), r)
		opened++
	}
	if got := ownerConns(t0); got != 3 {
		t.Fatalf("owner charges %d conns after 3 remote opens, want 3", got)
	}
	t1.Close()
	waitFor(t, "the owner to release the lost peer's connections", func() bool { return ownerConns(t0) == 0 })
}
