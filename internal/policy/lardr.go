package policy

import (
	"sync"

	"phttp/internal/cache"
	"phttp/internal/core"
)

// LARDR is LARD with replication, the companion strategy from the original
// LARD paper (Pai et al., ASPLOS '98) that this paper builds on: instead of
// mapping each target to exactly one back-end, LARD/R maintains a *server
// set* per target. Requests go to the least-loaded member; when even that
// member is loaded past the replication threshold the set grows by the
// least-loaded outside node (the target is popular enough to be worth
// caching twice), and a set that has not grown for a while shrinks again so
// cold targets do not stay replicated forever.
//
// The original formulates growth/shrink with wall-clock timers; to keep the
// policy deterministic for simulation we count assignments instead: a set
// may grow at most once every GrowInterval assignments of that target and
// shrinks after ShrinkInterval assignments without growth. This preserves
// the behaviour (hot targets replicate quickly, replicas decay) without a
// clock.
//
// LARD/R distributes at connection granularity like basic LARD; it is
// provided as the natural baseline extension and for the replication
// ablation, not as one of the paper's figure curves.
type LARDR struct {
	params  Params
	loads   *core.LoadTracker
	mapping *cache.Mapping
	all     []core.NodeID

	mem memberSet

	// GrowInterval and ShrinkInterval are assignment counts (see above).
	GrowInterval   int
	ShrinkInterval int

	// mu guards the replication state: the server-set grow/shrink decision
	// is a read-modify-write over per-target counters and the mapping, so
	// concurrent ConnOpens serialize here. The lock covers only connection
	// establishment; the per-request path (AssignBatch) touches nothing
	// shared beyond the atomic load tracker.
	mu sync.Mutex
	// assigns[id] counts assignments of target id since its last growth.
	// Indexed by dense interned TargetID, it replaces the old string-keyed
	// state map: bounded by the interned population, no pruning needed,
	// and the per-connection path allocates nothing once grown. A target
	// whose mapping aged out entirely re-enters through the empty-set path
	// below, which resets its counter — exactly the old semantics.
	assigns []int32
	setBuf  []core.NodeID // scratch for server sets, guarded by mu
}

var (
	_ core.Policy           = (*LARDR)(nil)
	_ core.MembershipPolicy = (*LARDR)(nil)
)

// NewLARDR returns a LARD/R policy over n nodes.
func NewLARDR(n int, cacheBytes int64, params Params) *LARDR {
	l := &LARDR{
		params:         params,
		loads:          core.NewLoadTracker(n),
		mapping:        cache.NewMapping(n, cacheBytes),
		all:            allNodes(n),
		GrowInterval:   20,
		ShrinkInterval: 200,
		// Server sets never exceed the node count, so a cap-n scratch
		// buffer makes every AppendNodesFor below allocation-free.
		setBuf: make([]core.NodeID, 0, n),
	}
	l.mem.init(n)
	return l
}

// NodeUp, NodeDown and NodeDraining implement core.MembershipPolicy.
// Server sets shrink to their eligible members at assignment time, so a
// draining node's memberships stop attracting traffic; a Down node's are
// dropped, as for LARD.
func (l *LARDR) NodeUp(n core.NodeID)       { l.mem.setEligible(n, true) }
func (l *LARDR) NodeDraining(n core.NodeID) { l.mem.setEligible(n, false) }
func (l *LARDR) NodeDown(n core.NodeID) {
	l.mem.setEligible(n, false)
	l.mapping.DropNode(n)
}

// Name implements core.Policy.
func (l *LARDR) Name() string { return "LARD/R" }

// Mapping exposes the target→node server sets.
func (l *LARDR) Mapping() *cache.Mapping { return l.mapping }

// ConnOpen assigns the handling node from the target's server set, growing
// or shrinking the set per the replication rules.
//
//phttp:hotpath
func (l *LARDR) ConnOpen(c *core.ConnState, first core.Request) core.NodeID {
	n := l.assign(first)
	c.Handling = n
	l.loads.AddConn(n)
	return n
}

// counter returns a pointer to id's assignment counter, growing the dense
// index as new targets appear. Callers hold l.mu.
func (l *LARDR) counter(id core.TargetID) *int32 {
	if int(id) >= len(l.assigns) {
		grown := make([]int32, int(id)+1+len(l.assigns)/2)
		copy(grown, l.assigns)
		l.assigns = grown
	}
	return &l.assigns[id]
}

func (l *LARDR) assign(r core.Request) core.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	mem := l.mem.active()
	set := l.filterEligible(l.mapping.AppendNodesFor(l.setBuf[:0], r.ID), mem)
	if len(set) == 0 {
		// Unmapped (or mapped only on ineligible nodes): send to the
		// least-loaded eligible node and map it. With zero eligible
		// nodes — the driver gates dispatch on that — degrade to the
		// unfiltered choice rather than returning NoNode.
		n := mem.leastEligible(l.loads, l.all)
		if n == core.NoNode {
			n = l.leastOf(l.all)
		}
		l.mapping.Map(r.ID, r.Size, n)
		*l.counter(r.ID) = 0
		return n
	}
	st := l.counter(r.ID)
	*st++

	n := l.leastOf(set)
	switch {
	case l.loads.Load(n) >= l.params.LOverload && len(set) < l.loads.Nodes() &&
		int(*st) >= l.GrowInterval:
		// Even the lightest replica is overloaded: replicate.
		grown := l.leastExcluding(set, mem)
		if grown == core.NoNode {
			// Every node outside the set is ineligible; nothing to
			// replicate onto.
			break
		}
		l.mapping.Map(r.ID, r.Size, grown)
		*st = 0
		return grown
	case len(set) > 1 && int(*st) >= l.ShrinkInterval:
		// Stable for a long time: decay one replica (the most loaded).
		drop := set[0]
		for _, m := range set[1:] {
			if l.loads.Load(m) > l.loads.Load(drop) {
				drop = m
			}
		}
		l.mapping.Unmap(r.ID, drop)
		*st = 0
		if drop == n {
			set = l.filterEligible(l.mapping.AppendNodesFor(set[:0], r.ID), mem)
			n = l.leastOf(set)
		}
	}
	l.mapping.Touch(r.ID, n)
	return n
}

func (l *LARDR) leastOf(set []core.NodeID) core.NodeID {
	best := set[0]
	for _, n := range set[1:] {
		if l.loads.Load(n) < l.loads.Load(best) {
			best = n
		}
	}
	return best
}

// leastExcluding returns the least-loaded eligible node outside set (or
// NoNode when none exists). Server sets are at most a handful of nodes,
// so the membership test is a linear scan — no per-call map.
func (l *LARDR) leastExcluding(set []core.NodeID, mem *memberSet) core.NodeID {
	best := core.NoNode
	for i := 0; i < l.loads.Nodes(); i++ {
		n := core.NodeID(i)
		if mem != nil && !mem.eligible(n) {
			continue
		}
		member := false
		for _, m := range set {
			if m == n {
				member = true
				break
			}
		}
		if member {
			continue
		}
		if best == core.NoNode || l.loads.Load(n) < l.loads.Load(best) {
			best = n
		}
	}
	return best
}

// filterEligible removes ineligible nodes from set in place. A nil mem
// (every node Up — the steady state) returns set untouched.
func (l *LARDR) filterEligible(set []core.NodeID, mem *memberSet) []core.NodeID {
	if mem == nil {
		return set
	}
	kept := set[:0]
	for _, n := range set {
		if mem.eligible(n) {
			kept = append(kept, n)
		}
	}
	return kept
}

// AssignBatch sends every request to the handling node (connection
// granularity, as with basic LARD). The returned slice is the connection's
// reusable buffer: valid until the next AssignBatch on the same connection.
//
//phttp:hotpath
func (l *LARDR) AssignBatch(c *core.ConnState, batch core.Batch) []core.Assignment {
	out := c.AssignBuf(len(batch))
	for i := range batch {
		out[i] = core.Assignment{Node: c.Handling}
		c.Requests++
	}
	c.Batches++
	return out
}

// BatchDone is a no-op for LARD/R.
func (l *LARDR) BatchDone(*core.ConnState) {}

// ConnClose releases the connection's load unit.
func (l *LARDR) ConnClose(c *core.ConnState) {
	if c.Handling != core.NoNode {
		l.loads.RemoveConn(c.Handling)
		c.Handling = core.NoNode
	}
}

// ReportDiskQueue is ignored by LARD/R.
func (l *LARDR) ReportDiskQueue(core.NodeID, int) {}

// Loads implements core.Policy.
func (l *LARDR) Loads() *core.LoadTracker { return l.loads }
