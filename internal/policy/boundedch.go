package policy

import (
	"sort"

	"phttp/internal/core"
)

// BoundedCH is consistent hashing with bounded loads (Mirrokni, Thorup &
// Zadimoghaddam, "Consistent Hashing with Bounded Loads", 2017 — the
// algorithm behind HAProxy's hash-balance-factor and Vimeo's skyfire
// dispatcher). Each node owns `replicas` pseudo-random points on a 64-bit
// hash ring; a target's interned ID hashes to a ring position and the walk
// clockwise from there stops at the first node whose connection count stays
// within c× the cluster mean after accepting one more. Popular targets thus
// stick to a stable node (cache locality, like LARD's mapping but stateless)
// while the bound keeps any single node from melting under a hot target —
// the overflow spills to the next nodes on the ring.
//
// BoundedCH distributes at connection granularity and runs under the single
// handoff mechanism in both the simulator and the prototype.
//
// Concurrency: the ring is immutable after construction and the decision
// reads the atomic load tracker, so concurrent dispatch needs no policy
// lock. Two racing opens may both see room at a node and overshoot the
// bound by one connection — the same benign staleness every policy here
// accepts on its load estimates.
type BoundedCH struct {
	connGranular
	bound float64 // load bound factor c >= 1
	seed  uint64

	ring []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node core.NodeID
}

var (
	_ core.Policy           = (*BoundedCH)(nil)
	_ core.MembershipPolicy = (*BoundedCH)(nil)
)

// NewBoundedCH returns a bounded-load consistent-hashing policy over n
// nodes with the given virtual replica count per node and load bound
// factor (c >= 1; 1.25 is the literature's default).
func NewBoundedCH(n, replicas int, bound float64, seed uint64) *BoundedCH {
	if bound < 1 {
		bound = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	b := &BoundedCH{
		bound: bound,
		seed:  seed,
		ring:  make([]ringPoint, 0, n*replicas),
	}
	b.initConnGranular(n)
	for node := 0; node < n; node++ {
		for r := 0; r < replicas; r++ {
			h := splitmix64(seed ^ uint64(node)<<32 ^ uint64(r))
			b.ring = append(b.ring, ringPoint{hash: h, node: core.NodeID(node)})
		}
	}
	sort.Slice(b.ring, func(i, j int) bool {
		if b.ring[i].hash != b.ring[j].hash {
			return b.ring[i].hash < b.ring[j].hash
		}
		return b.ring[i].node < b.ring[j].node
	})
	return b
}

// Name implements core.Policy.
func (b *BoundedCH) Name() string { return "boundedCH" }

// capacity returns the per-node connection cap for the current total:
// ceil(c × (total+1) / n), the paper's bound with the incoming connection
// counted. With c >= 1 at least one node is always below it (if every node
// held ≥ cap connections the total would exceed c×(total+1) ≥ total+1).
// Under churn n is the eligible node count — the bound keeps its meaning
// over the nodes that can actually accept work — while total still
// counts every connection (those on draining nodes will finish and the
// cap relaxes as they do).
func (b *BoundedCH) capacity(mem *memberSet) int {
	n := b.loads.Nodes()
	total := 0
	elig := 0
	for i := 0; i < n; i++ {
		total += b.loads.Conns(core.NodeID(i))
		if mem == nil || mem.eligible(core.NodeID(i)) {
			elig++
		}
	}
	if elig == 0 {
		elig = n
	}
	c := b.bound * float64(total+1) / float64(elig)
	limit := int(c)
	if float64(limit) < c {
		limit++
	}
	return limit
}

// pick walks the ring clockwise from the placement key's hash position and
// returns the first eligible node with spare capacity. Ineligible nodes'
// ring points are skipped — removing a node shifts only its own arcs to
// the next nodes clockwise, the consistent-hashing property.
func (b *BoundedCH) pick(key uint64) core.NodeID {
	h := splitmix64(key ^ b.seed)
	i := sort.Search(len(b.ring), func(i int) bool { return b.ring[i].hash >= h })
	mem := b.active()
	limit := b.capacity(mem)
	for walked := 0; walked < len(b.ring); walked++ {
		p := b.ring[(i+walked)%len(b.ring)]
		if mem != nil && !mem.eligible(p.node) {
			continue
		}
		if b.loads.Conns(p.node) < limit {
			return p.node
		}
	}
	// Unreachable with a correctly computed cap (see capacity); degrade to
	// the least-loaded (eligible, if any) node rather than panicking on
	// racy counts.
	if n := mem.leastEligibleAll(b.loads); n != core.NoNode {
		return n
	}
	return b.loads.Least()
}

// ConnOpen assigns the connection by bounded-load consistent hashing on
// the first request's target and charges one load unit.
//
//phttp:hotpath
func (b *BoundedCH) ConnOpen(c *core.ConnState, first core.Request) core.NodeID {
	n := b.pick(placementKey(c, first))
	c.Handling = n
	b.loads.AddConn(n)
	return n
}

// The batch/close/feedback lifecycle is the shared connection-granularity
// base (connGranular).
