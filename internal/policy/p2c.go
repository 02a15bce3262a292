package policy

import (
	"phttp/internal/core"
)

// P2C is the power-of-two-choices policy (Mitzenmacher '96) keyed on the
// requested content: a target's interned ID hashes to two candidate
// back-ends, and the connection goes to the less loaded of the two. The
// candidate pair is a pure function of (target, seed), so a popular target
// concentrates on at most two nodes — "two-way LARD without a mapping
// table": most of the locality benefit with zero dispatcher state beyond
// the load tracker, and none of the mapping-table maintenance.
//
// P2C distributes at connection granularity (every request of a persistent
// connection is served by the handling node), so it runs under the single
// handoff mechanism in both the simulator and the prototype.
//
// P2C is safe for concurrent dispatch: the decision reads the atomic load
// tracker and per-connection state is owned by the caller (the dispatch
// engine serializes calls per connection). Racing decisions see slightly
// stale loads, exactly like the paper's front-end.
type P2C struct {
	connGranular
	seed uint64
}

var (
	_ core.Policy           = (*P2C)(nil)
	_ core.MembershipPolicy = (*P2C)(nil)
)

// NewP2C returns a power-of-two-choices policy over n nodes. seed
// perturbs the target→candidates hash (same seed, same placement).
func NewP2C(n int, seed uint64) *P2C {
	p := &P2C{seed: seed}
	p.initConnGranular(n)
	return p
}

// Name implements core.Policy.
func (p *P2C) Name() string { return "P2C" }

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// mixer (Steele et al., "Fast splittable pseudorandom number generators").
// Both hash-keyed policies (P2C, BoundedCH) derive placement from it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// placementKey is what the hash-keyed policies place a connection by: its
// first target's ID, or — for a target a full capped interner turned away
// (NoTarget) — the connection's own ID, so overflow connections spread
// over the nodes instead of piling onto one key's placement.
func placementKey(c *core.ConnState, first core.Request) uint64 {
	if first.ID == core.NoTarget {
		return uint64(c.ID) | 1<<63
	}
	return uint64(uint32(first.ID))
}

// candidates returns the two candidate nodes for a placement key: distinct
// whenever the cluster has two nodes, deterministic per (key, seed).
func (p *P2C) candidates(key uint64) (core.NodeID, core.NodeID) {
	n := p.loads.Nodes()
	if n == 1 {
		return 0, 0
	}
	h := splitmix64(key ^ p.seed)
	a := core.NodeID(h % uint64(n))
	// Second choice over the remaining n-1 nodes, shifted past the first:
	// distinct by construction, no rejection loop.
	b := core.NodeID((h >> 32) % uint64(n-1))
	if b >= a {
		b++
	}
	return a, b
}

// ConnOpen sends the connection to the less loaded of the first target's
// two candidate nodes and charges it one load unit. Under churn an
// ineligible candidate loses to the eligible one; when both candidates
// are out, the connection goes to the least-loaded eligible node (the
// target's locality is sacrificed, its fallback placement still
// deterministic per the load state).
//
//phttp:hotpath
func (p *P2C) ConnOpen(c *core.ConnState, first core.Request) core.NodeID {
	a, b := p.candidates(placementKey(c, first))
	best := a
	if p.loads.Load(b) < p.loads.Load(a) {
		best = b
	}
	if mem := p.active(); mem != nil {
		switch {
		case mem.eligible(a) && mem.eligible(b):
			// keep best
		case mem.eligible(a):
			best = a
		case mem.eligible(b):
			best = b
		default:
			if n := mem.leastEligibleAll(p.loads); n != core.NoNode {
				best = n
			}
		}
	}
	c.Handling = best
	p.loads.AddConn(best)
	return best
}

// The batch/close/feedback lifecycle is the shared connection-granularity
// base (connGranular).
