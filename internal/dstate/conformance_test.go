package dstate_test

import (
	"fmt"
	"testing"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/policy"
)

// The store-conformance suite: every dstate.Store backend — local,
// sharded, replicated — must satisfy the same observable contract when
// driven through the connection lifecycle. The differences between the
// backends (where state lives, when peers see it) are pinned by the
// member tests in member_test.go; this file pins what must NOT differ.

// harness is one tier under test: N store views, the members behind them
// (nil in local mode) and the sharded ownership ring they route by.
type harness struct {
	mode    dstate.Mode
	stores  []dstate.Store
	members []*dstate.Member
	ring    *policy.OwnerRing
	in      *core.Interner
	nodes   int
	nextID  core.ConnID
}

// newHarness builds a tier of the given mode over fresh lard policies,
// its members wired directly to each other.
func newHarness(t *testing.T, mode dstate.Mode, frontends, nodes int) *harness {
	t.Helper()
	h := &harness{mode: mode, in: core.NewInterner(), nodes: nodes}
	if mode == dstate.ModeLocal {
		h.stores = []dstate.Store{dstate.NewLocal(newPolicy(t, nodes))}
		return h
	}
	h.members = newMembers(t, mode, frontends, nodes, nil)
	for _, m := range h.members {
		h.stores = append(h.stores, m)
	}
	h.ring = policy.NewOwnerRing(frontends, 0, dstate.ShardRingSeed)
	return h
}

// newPolicy builds one lard policy over nodes.
func newPolicy(t *testing.T, nodes int) core.Policy {
	t.Helper()
	pol, err := dispatch.Build(dispatch.Spec{Policy: "lard", Nodes: nodes, CacheBytes: 32 << 20})
	if err != nil {
		t.Fatalf("build policy: %v", err)
	}
	return pol
}

// newMembers builds the n members of one tier over fresh lard policies.
// Member f reaches member g through link(f, g, member g), or directly when
// link is nil.
func newMembers(t *testing.T, mode dstate.Mode, n, nodes int, link func(f, g int, to *dstate.Member) dstate.Peer) []*dstate.Member {
	t.Helper()
	members := make([]*dstate.Member, n)
	peers := make([][]dstate.Peer, n)
	for f := range members {
		peers[f] = make([]dstate.Peer, n)
		m, err := dstate.NewMember(mode, f, newPolicy(t, nodes), peers[f])
		if err != nil {
			t.Fatalf("member %d: %v", f, err)
		}
		members[f] = m
	}
	for f := range peers {
		for g, to := range members {
			if g == f {
				continue
			}
			peers[f][g] = to
			if link != nil {
				peers[f][g] = link(f, g, to)
			}
		}
	}
	return members
}

// sync runs one replication round: every member's Sync in front-end
// order, as the simulator does (a no-op where nothing replicates).
func (h *harness) sync() {
	for _, m := range h.members {
		m.Sync()
	}
}

// req interns a target and builds its request.
func (h *harness) req(target string) core.Request {
	tg := core.Target(target)
	return core.Request{Target: tg, ID: h.in.Intern(tg), Size: 8 << 10}
}

// open opens one connection for target through store view fe.
func (h *harness) open(fe int, target string) (*core.ConnState, core.NodeID) {
	h.nextID++
	cs := core.NewConnState(h.nextID)
	n := h.stores[fe].ConnOpen(cs, h.req(target))
	return cs, n
}

// localConns sums the locally charged connection count across every
// replica/shard of the tier — the tier-wide ground truth that must track
// the number of open connections exactly, whichever replica holds each
// charge.
func (h *harness) localConns() int {
	seen := make(map[*core.LoadTracker]bool)
	total := 0
	for _, s := range h.stores {
		lt := s.Policy().Loads()
		if seen[lt] {
			continue // local mode: one policy behind every view
		}
		seen[lt] = true
		for n := 0; n < h.nodes; n++ {
			total += lt.LocalConns(core.NodeID(n))
		}
	}
	return total
}

// modes under conformance test: (mode, tier size).
var conformanceModes = []struct {
	mode dstate.Mode
	fes  int
}{
	{dstate.ModeLocal, 1},
	{dstate.ModeSharded, 3},
	{dstate.ModeReplicated, 3},
}

// TestStoreConformanceMappingVisibility: once a connection for target X
// has been opened and closed through any view (and a sync round has run),
// a later connection for X opened through any other view must land on
// the node that cached X — locality survives crossing front-ends, which
// is the entire point of sharing dispatch state.
func TestStoreConformanceMappingVisibility(t *testing.T) {
	for _, tc := range conformanceModes {
		t.Run(tc.mode.String(), func(t *testing.T) {
			h := newHarness(t, tc.mode, tc.fes, 4)
			for i := 0; i < 8; i++ {
				target := fmt.Sprintf("/doc/%d", i)
				cs, first := h.open(0, target)
				h.stores[0].ConnClose(cs)
				h.sync()
				for fe := range h.stores {
					cs2, got := h.open(fe, target)
					if got != first {
						t.Errorf("%s: target %s decided %v at view 0 but %v at view %d",
							tc.mode, target, first, got, fe)
					}
					h.stores[fe].ConnClose(cs2)
					h.sync()
				}
			}
		})
	}
}

// TestStoreConformanceLoadAccounting: the tier-wide locally charged
// connection count must rise by exactly one per open (monotonically, no
// double-charges whichever replica owns the state) and return to zero
// after every close.
func TestStoreConformanceLoadAccounting(t *testing.T) {
	for _, tc := range conformanceModes {
		t.Run(tc.mode.String(), func(t *testing.T) {
			h := newHarness(t, tc.mode, tc.fes, 4)
			var open []*core.ConnState
			var views []int
			for i := 0; i < 24; i++ {
				fe := i % len(h.stores)
				before := h.localConns()
				cs, _ := h.open(fe, fmt.Sprintf("/load/%d", i%7))
				open = append(open, cs)
				views = append(views, fe)
				if got := h.localConns(); got != before+1 {
					t.Fatalf("%s: open %d moved tier conn count %d -> %d, want +1",
						tc.mode, i, before, got)
				}
			}
			for i, cs := range open {
				h.stores[views[i]].ConnClose(cs)
			}
			if got := h.localConns(); got != 0 {
				t.Errorf("%s: %d connection units leaked after closing everything", tc.mode, got)
			}
		})
	}
}

// TestStoreConformanceDeterminism: two tiers built from the same spec and
// seed, driven with the same request sequence through the same views,
// must make the identical decision sequence — the property the
// simulator's goldens (and its serial-vs-parallel sweep equivalence)
// stand on.
func TestStoreConformanceDeterminism(t *testing.T) {
	for _, tc := range conformanceModes {
		t.Run(tc.mode.String(), func(t *testing.T) {
			run := func() []core.NodeID {
				h := newHarness(t, tc.mode, tc.fes, 4)
				var decisions []core.NodeID
				var open []*core.ConnState
				var views []int
				for i := 0; i < 200; i++ {
					fe := (i * 7) % len(h.stores)
					cs, n := h.open(fe, fmt.Sprintf("/det/%d", (i*13)%31))
					decisions = append(decisions, n)
					open = append(open, cs)
					views = append(views, fe)
					if i%3 == 0 {
						h.sync()
					}
					if i%5 == 4 {
						j := len(open) - 3
						h.stores[views[j]].ConnClose(open[j])
						open[j] = nil
					}
				}
				for j, cs := range open {
					if cs != nil {
						h.stores[views[j]].ConnClose(cs)
					}
				}
				return decisions
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: decision %d differs between identical runs: %v vs %v",
						tc.mode, i, a[i], b[i])
				}
			}
		})
	}
}
