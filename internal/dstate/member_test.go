package dstate_test

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"phttp/internal/core"
	"phttp/internal/dstate"
)

// mapping returns the cache mapping behind a tier view's policy.
func mapping(t *testing.T, s dstate.Store) interface {
	IsMapped(core.TargetID, core.NodeID) bool
	NodesFor(core.TargetID) []core.NodeID
	Map(core.TargetID, int64, core.NodeID)
} {
	t.Helper()
	mp, ok := s.Policy().(dstate.MappingPolicy)
	if !ok {
		t.Fatalf("policy %s exposes no mapping", s.Policy().Name())
	}
	return mp.Mapping()
}

// TestTierShardedOwnership: in sharded mode every connection's state lives
// on the ring owner's shard, whichever member opened it — the charge lands
// on the owner's load tracker and OwnerFE records the routing decision.
func TestTierShardedOwnership(t *testing.T) {
	h := newHarness(t, dstate.ModeSharded, 3, 4)
	owned := make(map[int]int)
	for i := 0; i < 60; i++ {
		target := fmt.Sprintf("/shard/%d", i)
		owner := h.ring.Owner(h.req(target).ID)
		owned[owner]++
		opener := i % len(h.stores)
		cs, _ := h.open(opener, target)
		if int(cs.OwnerFE) != owner {
			t.Errorf("target %s opened via %d: OwnerFE = %d, want ring owner %d",
				target, opener, cs.OwnerFE, owner)
		}
		var ownerConns, otherConns int
		for fe, s := range h.stores {
			lt := s.Policy().Loads()
			for n := 0; n < h.nodes; n++ {
				c := lt.LocalConns(core.NodeID(n))
				if fe == owner {
					ownerConns += c
				} else {
					otherConns += c
				}
			}
		}
		if ownerConns != 1 || otherConns != 0 {
			t.Fatalf("target %s: owner shard holds %d conns, others %d; want 1/0",
				target, ownerConns, otherConns)
		}
		h.stores[opener].ConnClose(cs)
	}
	for fe := range h.stores {
		if owned[fe] == 0 {
			t.Errorf("front-end %d owns none of 60 targets; ring is degenerate", fe)
		}
	}
	if got := h.members[0].RemoteOpens(); got == 0 {
		t.Error("member 0 counted no remote opens")
	}
}

// TestTierReplicatedStaleness: a mapping write is invisible to peer
// replicas until a Sync round delivers it — the bounded-staleness window —
// and visible to every replica afterwards.
func TestTierReplicatedStaleness(t *testing.T) {
	h := newHarness(t, dstate.ModeReplicated, 3, 4)
	r := h.req("/stale/x")
	cs, n := h.open(0, string(r.Target))
	h.stores[0].ConnClose(cs)

	if !mapping(t, h.stores[0]).IsMapped(r.ID, n) {
		t.Fatal("origin replica lost its own write")
	}
	for fe := 1; fe < 3; fe++ {
		if mapping(t, h.stores[fe]).IsMapped(r.ID, n) {
			t.Errorf("replica %d sees the write before any sync round", fe)
		}
	}
	h.sync()
	for fe := 0; fe < 3; fe++ {
		if !mapping(t, h.stores[fe]).IsMapped(r.ID, n) {
			t.Errorf("replica %d still misses the write after sync", fe)
		}
	}
}

// TestTierReplicatedConvergence: concurrent mapping writes on different
// replicas for the same target converge — after a sync round every replica
// reports the identical node set for the target, deltas applied in
// front-end/write order.
func TestTierReplicatedConvergence(t *testing.T) {
	h := newHarness(t, dstate.ModeReplicated, 3, 4)
	r := h.req("/conflict/x")
	mapping(t, h.stores[0]).Map(r.ID, r.Size, core.NodeID(1))
	mapping(t, h.stores[1]).Map(r.ID, r.Size, core.NodeID(2))
	h.sync()

	want := nodeSet(mapping(t, h.stores[0]).NodesFor(r.ID))
	if len(want) == 0 {
		t.Fatal("replica 0 has no nodes for the target after sync")
	}
	for fe := 1; fe < 3; fe++ {
		got := nodeSet(mapping(t, h.stores[fe]).NodesFor(r.ID))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("replica %d node set %v, replica 0 has %v — replicas diverged", fe, got, want)
		}
	}
}

func nodeSet(ns []core.NodeID) []core.NodeID {
	out := append([]core.NodeID(nil), ns...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestTierReplicatedLoadSync: after a sync round every replica's view of a
// node's load is its own charges plus the sum of its peers' — so a replica
// that dispatched nothing still sees the tier-wide pressure.
func TestTierReplicatedLoadSync(t *testing.T) {
	h := newHarness(t, dstate.ModeReplicated, 3, 4)
	var open []*core.ConnState
	perNode := make(map[core.NodeID]int)
	for i := 0; i < 6; i++ {
		cs, n := h.open(0, fmt.Sprintf("/loadsync/%d", i))
		open = append(open, cs)
		perNode[n]++
	}
	idle := h.stores[1].Policy().Loads()
	for n := range perNode {
		if got := idle.Conns(n); got != 0 {
			t.Errorf("replica 1 sees %d conns on node %v before sync (want 0, staleness bound)", got, n)
		}
	}
	h.sync()
	for n, want := range perNode {
		if got := idle.Conns(n); got != want {
			t.Errorf("replica 1 sees %d conns on node %v after sync, origin charged %d", got, n, want)
		}
		if idle.LocalConns(n) != 0 {
			t.Errorf("sync turned remote charges into local ones on node %v", n)
		}
	}
	for _, cs := range open {
		h.stores[0].ConnClose(cs)
	}
	h.sync()
	for n := range perNode {
		if got := idle.Conns(n); got != 0 {
			t.Errorf("replica 1 still sees %d conns on node %v after closes synced", got, n)
		}
	}
}

// TestTierReplicatedPeerLostDropsLoad: a lost replica's last synced load
// vector leaves every survivor's remote base, and the surviving peers'
// charges stay in it.
func TestTierReplicatedPeerLostDropsLoad(t *testing.T) {
	h := newHarness(t, dstate.ModeReplicated, 3, 4)
	kept := make(map[core.NodeID]int)
	for i := 0; i < 5; i++ {
		h.open(1, fmt.Sprintf("/lost/%d", i))
	}
	for i := 0; i < 3; i++ {
		_, n := h.open(2, fmt.Sprintf("/kept/%d", i))
		kept[n]++
	}
	h.sync()
	h.members[0].PeerLost(1)
	survivor := h.stores[0].Policy().Loads()
	for n := core.NodeID(0); n < core.NodeID(h.nodes); n++ {
		if got := survivor.Conns(n); got != kept[n] {
			t.Errorf("replica 0 sees %d conns on node %v after losing replica 1, want replica 2's %d", got, n, kept[n])
		}
	}
}

// recorder is a Peer that records every sync round it carries from
// member from to the member behind it.
type recorder struct {
	dstate.Peer
	from   int
	rounds [][]dstate.MapDelta
}

func (r *recorder) PeerSync(origin int, deltas []dstate.MapDelta, loads []dstate.NodeLoad) bool {
	r.rounds = append(r.rounds, append([]dstate.MapDelta(nil), deltas...))
	return r.Peer.PeerSync(origin, deltas, loads)
}

// TestTierJournal: a replicated member journals its mapping writes in
// write order, sends the journal to every peer on Sync, and starts the
// next round empty; an idle member sends empty rounds.
func TestTierJournal(t *testing.T) {
	var links []*recorder
	members := newMembers(t, dstate.ModeReplicated, 3, 4, func(f, _ int, to *dstate.Member) dstate.Peer {
		r := &recorder{Peer: to, from: f}
		links = append(links, r)
		return r
	})
	in := core.NewInterner()
	var want []dstate.MapDelta
	var conns []*core.ConnState
	for i := 0; i < 5; i++ {
		tg := core.Target(fmt.Sprintf("/journal/%d", i))
		r := core.Request{Target: tg, ID: in.Intern(tg), Size: 8 << 10}
		cs := core.NewConnState(core.ConnID(i + 1))
		n := members[1].ConnOpen(cs, r)
		want = append(want, dstate.MapDelta{ID: r.ID, Node: n, Size: r.Size})
		conns = append(conns, cs)
	}
	for _, m := range members {
		m.Sync()
	}
	members[1].Sync()
	for _, r := range links {
		switch {
		case r.from != 1:
			if len(r.rounds) != 1 || len(r.rounds[0]) != 0 {
				t.Errorf("idle member %d sent rounds %v, want one empty round", r.from, r.rounds)
			}
		case len(r.rounds) != 2:
			t.Errorf("member 1 sent %d rounds to a peer, want 2", len(r.rounds))
		case fmt.Sprint(r.rounds[0]) != fmt.Sprint(want):
			t.Errorf("first round carried %v, want the writes in order %v", r.rounds[0], want)
		case len(r.rounds[1]) != 0:
			t.Errorf("second round resent %d deltas", len(r.rounds[1]))
		}
	}
	if got := members[1].Syncs(); got != 2 {
		t.Errorf("Syncs = %d, want 2", got)
	}
	for _, cs := range conns {
		members[1].ConnClose(cs)
	}
}

// refuser is a Peer that cannot be reached.
type refuser struct{}

func (refuser) PeerOpen(int, core.ConnID, core.Request) (core.NodeID, bool) {
	return core.NoNode, false
}
func (refuser) PeerClose(int, core.ConnID) bool                         { return false }
func (refuser) PeerMove(int, core.ConnID, core.NodeID) bool             { return false }
func (refuser) PeerSync(int, []dstate.MapDelta, []dstate.NodeLoad) bool { return false }

// TestTierRandomInterleavings drives three members through seeded random
// interleavings of open, assign, move, close and sync in each mode. After
// every step the charges the members hold sum to the open connections;
// after the last close and a final sync round no charge is left, no member
// sees a remote one, and the replicated mappings agree. In the variant
// whose member 2 cannot reach member 0, the opens member 0 owns are decided
// at member 2 and counted as fallbacks, and the charges are conserved all
// the same.
func TestTierRandomInterleavings(t *testing.T) {
	const nodes, targets = 4, 12
	for _, tc := range []struct {
		name string
		mode dstate.Mode
		cut  bool
	}{
		{"sharded", dstate.ModeSharded, false},
		{"replicated", dstate.ModeReplicated, false},
		{"sharded-unreachable", dstate.ModeSharded, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fallbacks int64
			for seed := uint64(1); seed <= 20; seed++ {
				var link func(f, g int, to *dstate.Member) dstate.Peer
				if tc.cut {
					link = func(f, g int, to *dstate.Member) dstate.Peer {
						if f == 2 && g == 0 {
							return refuser{}
						}
						return to
					}
				}
				members := newMembers(t, tc.mode, 3, nodes, link)
				fallbacks += runInterleaving(t, seed, tc.mode, members, nodes, targets)
			}
			if tc.cut && fallbacks == 0 {
				t.Error("an unreachable owner caused no fallback")
			}
			if !tc.cut && fallbacks != 0 {
				t.Errorf("%d fallbacks with every member reachable", fallbacks)
			}
		})
	}
}

// runInterleaving runs one seeded interleaving over members and checks
// it; it returns the fallbacks the members counted.
func runInterleaving(t *testing.T, seed uint64, mode dstate.Mode, members []*dstate.Member, nodes, targets int) int64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0))
	in := core.NewInterner()
	ids := make([]core.TargetID, targets)
	for i := range ids {
		ids[i] = in.Intern(core.Target(fmt.Sprintf("/r/%d", i)))
	}
	req := func() core.Request {
		i := rng.IntN(targets)
		return core.Request{Target: in.Name(ids[i]), ID: ids[i], Size: 4 << 10}
	}
	charged := func() int {
		total := 0
		for _, m := range members {
			for n := 0; n < nodes; n++ {
				total += m.Policy().Loads().LocalConns(core.NodeID(n))
			}
		}
		return total
	}
	type conn struct {
		m  *dstate.Member
		cs *core.ConnState
	}
	var live []conn
	for step := 0; step < 400; step++ {
		switch op := rng.IntN(10); {
		case op < 3 || len(live) == 0:
			m := members[rng.IntN(len(members))]
			cs := core.NewConnState(core.ConnID(step + 1))
			m.ConnOpen(cs, req())
			live = append(live, conn{m, cs})
		case op < 5:
			c := live[rng.IntN(len(live))]
			batch := core.Batch{req(), req()}[:1+rng.IntN(2)]
			for _, a := range c.m.AssignBatch(c.cs, batch) {
				if a.Node != c.cs.Handling {
					t.Fatalf("seed %d step %d: request assigned to %d, connection handled on %d", seed, step, a.Node, c.cs.Handling)
				}
			}
			c.m.BatchDone(c.cs)
		case op < 6:
			c := live[rng.IntN(len(live))]
			c.m.MoveConn(c.cs, core.NodeID((int(c.cs.Handling)+1+rng.IntN(nodes-1))%nodes))
		case op < 8:
			i := rng.IntN(len(live))
			live[i].m.ConnClose(live[i].cs)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			members[rng.IntN(len(members))].Sync()
		}
		if got := charged(); got != len(live) {
			t.Fatalf("seed %d step %d: members charge %d connections, %d are open", seed, step, got, len(live))
		}
	}
	for _, c := range live {
		c.m.ConnClose(c.cs)
	}
	for _, m := range members {
		m.Sync()
	}
	if got := charged(); got != 0 {
		t.Fatalf("seed %d: %d connections still charged after every close", seed, got)
	}
	var fallbacks int64
	for f, m := range members {
		fallbacks += m.Fallbacks()
		lt := m.Policy().Loads()
		for n := 0; n < nodes; n++ {
			if c := lt.Conns(core.NodeID(n)); c != 0 {
				t.Errorf("seed %d: member %d sees %d connections on node %d after the final round", seed, f, c, n)
			}
		}
	}
	if mode == dstate.ModeReplicated {
		m0 := mapping(t, members[0])
		for _, m := range members[1:] {
			mf := mapping(t, m)
			for _, id := range ids {
				for n := core.NodeID(0); int(n) < nodes; n++ {
					if mf.IsMapped(id, n) != m0.IsMapped(id, n) {
						t.Fatalf("seed %d: replicas disagree on %s at node %d", seed, in.Name(id), n)
					}
				}
			}
		}
	}
	return fallbacks
}

// TestTierConfigValidation: the one tier rule both worlds apply
// (CheckTier), and the member constructor's refusals.
func TestTierConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mode  dstate.Mode
		fes   int
		mech  core.Mechanism
		valid bool
	}{
		{"single local", dstate.ModeLocal, 1, core.BEForwarding, true},
		{"plural local", dstate.ModeLocal, 2, core.SingleHandoff, false},
		{"sharded single handoff", dstate.ModeSharded, 4, core.SingleHandoff, true},
		{"tier of one sharded", dstate.ModeSharded, 1, core.SingleHandoff, true},
		{"sharded BE forwarding", dstate.ModeSharded, 4, core.BEForwarding, false},
		{"sharded multiple handoff", dstate.ModeSharded, 2, core.MultipleHandoff, false},
		{"sharded zero cost", dstate.ModeSharded, 2, core.ZeroCostHandoff, false},
		{"replicated BE forwarding", dstate.ModeReplicated, 4, core.BEForwarding, true},
		{"unknown mode", dstate.Mode(7), 2, core.SingleHandoff, false},
	} {
		if err := dstate.CheckTier(tc.mode, tc.fes, tc.mech); (err == nil) != tc.valid {
			t.Errorf("%s: CheckTier = %v, want valid %v", tc.name, err, tc.valid)
		}
	}

	pol := newPolicy(t, 2)
	for _, tc := range []struct {
		name  string
		mode  dstate.Mode
		fe    int
		peers int
	}{
		{"no front-ends", dstate.ModeReplicated, 0, 0},
		{"index past the tier", dstate.ModeSharded, 2, 2},
		{"negative index", dstate.ModeSharded, -1, 2},
		{"local member", dstate.ModeLocal, 0, 2},
	} {
		if _, err := dstate.NewMember(tc.mode, tc.fe, pol, make([]dstate.Peer, tc.peers)); err == nil {
			t.Errorf("%s: NewMember accepted an invalid tier", tc.name)
		}
	}
}

// TestModeRoundTrip: Mode's string forms parse back, and garbage is
// rejected — the scenario schema's cluster.state key depends on both.
func TestModeRoundTrip(t *testing.T) {
	for _, m := range []dstate.Mode{dstate.ModeLocal, dstate.ModeSharded, dstate.ModeReplicated} {
		got, err := dstate.ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := dstate.ParseMode("paxos"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

// TestStoreSurface walks the full Store lifecycle on every backend — the
// calls the heavier tests do not reach: BatchDone after an assignment,
// MoveConn's load transfer and ReportDiskQueue — for a connection opened
// through view 0, whether its state is owned there or elsewhere.
func TestStoreSurface(t *testing.T) {
	for _, tc := range conformanceModes {
		t.Run(tc.mode.String(), func(t *testing.T) {
			h := newHarness(t, tc.mode, tc.fes, 2)
			for i := 0; i < 8; i++ {
				target := fmt.Sprintf("/surface/%d", i)
				r := h.req(target)
				cs, n := h.open(0, target)
				if tc.mode == dstate.ModeSharded && int(cs.OwnerFE) != h.ring.Owner(r.ID) {
					t.Fatalf("%s: OwnerFE %d, ring owner %d", target, cs.OwnerFE, h.ring.Owner(r.ID))
				}
				s := h.stores[0]
				as := s.AssignBatch(cs, core.Batch{r, r})
				if len(as) != 2 || as[0].Node != n || as[1].Node != n {
					t.Fatalf("%s: AssignBatch %v, want both requests on %d", target, as, n)
				}
				s.BatchDone(cs)
				s.ReportDiskQueue(n, 1)
				to := core.NodeID((int(n) + 1) % h.nodes)
				s.MoveConn(cs, to)
				if cs.Handling != to {
					t.Fatalf("MoveConn left Handling at %d, want %d", cs.Handling, to)
				}
				if h.localConns() != 1 {
					t.Fatalf("after move: %d conns charged, want 1", h.localConns())
				}
				s.ConnClose(cs)
				if h.localConns() != 0 {
					t.Fatalf("after close: %d conns still charged", h.localConns())
				}
			}
		})
	}
}
