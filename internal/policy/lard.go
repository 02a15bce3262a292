package policy

import (
	"phttp/internal/cache"
	"phttp/internal/core"
)

// LARD is the locality-aware request distribution strategy, formulated (as
// in the paper) through the three cost metrics: a request is sent to the
// node minimizing cost_balancing + cost_locality + cost_replacement, and the
// target→node mapping is updated to record where the target will now be
// cached.
//
// LARD distributes at connection granularity: every request of a persistent
// connection is served by the handling node chosen from the connection's
// first request. Running it on an HTTP/1.0 workload gives the paper's
// "simple-LARD" curves; on a P-HTTP workload it gives "simple-LARD-PHTTP".
//
// Policies identify targets by interned ID (core.TargetID): drivers intern
// at the edge (the trace loader for the simulator, the dispatch engine for
// the prototype), so the per-request path here never hashes a target
// string. Requests reaching a policy must carry a non-zero ID.
type LARD struct {
	params  Params
	loads   *core.LoadTracker
	mapping *cache.Mapping
	all     []core.NodeID // precomputed 0..n-1, read-only
	mem     memberSet

	// DownColdStart controls what NodeDown does with the mapping
	// entries pointing at the dead node: true (the default, matching a
	// crashed back-end restarting with an empty cache) drops them so
	// the dispatcher stops believing the node holds anything; false
	// keeps them for a warm rejoin (a drained node that kept its
	// cache). Set before traffic.
	DownColdStart bool
}

var (
	_ core.Policy           = (*LARD)(nil)
	_ core.MembershipPolicy = (*LARD)(nil)
)

// NewLARD returns a basic LARD policy over n nodes whose mapping model
// assumes each node caches about cacheBytes of content.
func NewLARD(n int, cacheBytes int64, params Params) *LARD {
	l := &LARD{
		params:        params,
		loads:         core.NewLoadTracker(n),
		mapping:       cache.NewMapping(n, cacheBytes),
		all:           allNodes(n),
		DownColdStart: true,
	}
	l.mem.init(n)
	return l
}

// NodeUp, NodeDown and NodeDraining implement core.MembershipPolicy:
// ineligible nodes disappear from the cost minimization, and a Down
// node's mapping entries are invalidated when DownColdStart is set.
func (l *LARD) NodeUp(n core.NodeID)       { l.mem.setEligible(n, true) }
func (l *LARD) NodeDraining(n core.NodeID) { l.mem.setEligible(n, false) }
func (l *LARD) NodeDown(n core.NodeID) {
	l.mem.setEligible(n, false)
	if l.DownColdStart {
		l.mapping.DropNode(n)
	}
}

// Name implements core.Policy.
func (l *LARD) Name() string { return "LARD" }

// Mapping exposes the target→node mapping table (tests, metrics).
func (l *LARD) Mapping() *cache.Mapping { return l.mapping }

// pick returns the node with the minimum aggregate cost for target among
// candidates, breaking ties toward lower load and then lower ID. If every
// candidate is overloaded (infinite cost), the least-loaded candidate is
// returned: the connection has to go somewhere.
//
// mem, when non-nil and not all-up, removes ineligible (Draining/Down)
// nodes from consideration; if that removes every candidate, the pick
// degrades to the unfiltered decision — an existing connection on a
// draining node keeps being served there rather than going nowhere.
//
//phttp:hotpath
func pick(p Params, loads *core.LoadTracker, mapping *cache.Mapping, id core.TargetID, candidates []core.NodeID, mem *memberSet) core.NodeID {
	if mem != nil {
		mem = mem.active()
	}
	if n := pickAmong(p, loads, mapping, id, candidates, mem); n != core.NoNode {
		return n
	}
	return pickAmong(p, loads, mapping, id, candidates, nil)
}

// The target's node mask is read once per decision (once per 64-node word
// the candidates span), not probed per candidate.
//
//phttp:hotpath
func pickAmong(p Params, loads *core.LoadTracker, mapping *cache.Mapping, id core.TargetID, candidates []core.NodeID, mem *memberSet) core.NodeID {
	best := core.NoNode
	bestCost := 0.0
	var mask uint64
	maskWord := -1
	for _, n := range candidates {
		if mem != nil && !mem.eligible(n) {
			continue
		}
		if w := int(n) >> 6; w != maskWord {
			mask, maskWord = mapping.MaskWord(id, w), w
		}
		cost := p.Aggregate(loads.Load(n), mask&(1<<(uint(n)&63)) != 0)
		if best == core.NoNode || cost < bestCost ||
			(cost == bestCost && loads.Load(n) < loads.Load(best)) {
			best, bestCost = n, cost
		}
	}
	if best != core.NoNode && bestCost == Infinite {
		// Everybody overloaded: degrade to pure load balancing.
		return mem.leastEligible(loads, candidates)
	}
	return best
}

func allNodes(n int) []core.NodeID {
	out := make([]core.NodeID, n)
	for i := range out {
		out[i] = core.NodeID(i)
	}
	return out
}

// ConnOpen chooses the handling node by minimum aggregate cost over all
// nodes and records that the first target will be cached there.
//
//phttp:hotpath
func (l *LARD) ConnOpen(c *core.ConnState, first core.Request) core.NodeID {
	n := pick(l.params, l.loads, l.mapping, first.ID, l.all, &l.mem)
	c.Handling = n
	l.loads.AddConn(n)
	l.mapping.Map(first.ID, first.Size, n)
	return n
}

// AssignBatch sends every request to the handling node (connection
// granularity; the single handoff mechanism permits nothing else). The
// returned slice is the connection's reusable buffer: valid until the next
// AssignBatch on the same connection.
func (l *LARD) AssignBatch(c *core.ConnState, batch core.Batch) []core.Assignment {
	out := c.AssignBuf(len(batch))
	for i := range batch {
		out[i] = core.Assignment{Node: c.Handling, CacheLocally: true}
		c.Requests++
	}
	c.Batches++
	return out
}

// BatchDone is a no-op for basic LARD.
func (l *LARD) BatchDone(*core.ConnState) {}

// ConnClose releases the connection's load unit.
func (l *LARD) ConnClose(c *core.ConnState) {
	if c.Handling != core.NoNode {
		l.loads.RemoveConn(c.Handling)
		c.Handling = core.NoNode
	}
}

// ReportDiskQueue is ignored by basic LARD.
func (l *LARD) ReportDiskQueue(core.NodeID, int) {}

// Loads implements core.Policy.
func (l *LARD) Loads() *core.LoadTracker { return l.loads }
