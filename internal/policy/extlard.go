package policy

import (
	"fmt"
	"sync/atomic"

	"phttp/internal/cache"
	"phttp/internal/core"
)

// ExtLARD is the extended LARD policy of Section 4.2, which distributes
// HTTP/1.1 requests efficiently in combination with a per-request-capable
// mechanism. Its behaviour depends on the mechanism it drives:
//
//   - BEForwarding: the first request chooses the handling node by basic
//     LARD. Each subsequent request is served by the handling node if the
//     target is cached there or its disk utilization is low; otherwise the
//     three cost metrics are evaluated over the handling node and the nodes
//     currently caching the target, and the winner serves it (laterally, if
//     remote). Remote nodes are charged 1/N of a load unit per pipelined
//     batch of N. Content fetched on a miss is cached locally only when the
//     handling node's disk utilization is low (the caching heuristic).
//
//   - MultipleHandoff: the same decision procedure as BE forwarding (the
//     mechanisms trade a per-byte forwarding cost for a per-migration
//     handoff cost; the policy question — serve locally or move the request
//     to a node caching the target — is identical), except that a remote
//     win migrates the connection instead of fetching laterally, and the
//     new node caches the target.
//
//   - ZeroCostHandoff / RelayFrontEnd: these mechanisms place no restriction
//     on the policy and reassignment is free, so each request is assigned by
//     the basic LARD cost metrics over all nodes, preserving full locality.
//
//   - SingleHandoff: degenerates to basic LARD (every request sticks to the
//     handling node); provided for completeness and property tests.
//
// On an HTTP/1.0 workload every connection carries one request, so ExtLARD
// is equivalent to LARD, as the paper notes.
//
// ExtLARD is safe for concurrent dispatch: the cost computation reads the
// atomic load tracker and the mapping's lock-free node masks without any
// policy-wide critical section, disk-queue reports land in atomic slots,
// and the decision counters are atomic. Calls for a single connection must be
// serialized by the caller (the dispatch engine's contract); racing
// decisions across connections see slightly stale load/mapping state, which
// is the paper's front-end exactly.
type ExtLARD struct {
	params  Params
	mech    core.Mechanism
	loads   *core.LoadTracker
	mapping *cache.Mapping
	all     []core.NodeID // precomputed 0..n-1, read-only
	diskQ   []atomic.Int64
	mem     memberSet

	// stats
	localServes   atomic.Int64
	remoteServes  atomic.Int64
	migrations    atomic.Int64
	cacheBypasses atomic.Int64
}

var (
	_ core.Policy           = (*ExtLARD)(nil)
	_ core.MembershipPolicy = (*ExtLARD)(nil)
)

// NewExtLARD returns an extended LARD policy over n nodes driving the given
// mechanism.
func NewExtLARD(n int, cacheBytes int64, params Params, mech core.Mechanism) *ExtLARD {
	e := &ExtLARD{
		params:  params,
		mech:    mech,
		loads:   core.NewLoadTracker(n),
		mapping: cache.NewMapping(n, cacheBytes),
		all:     allNodes(n),
		diskQ:   make([]atomic.Int64, n),
	}
	e.mem.init(n)
	return e
}

// NodeUp, NodeDown and NodeDraining implement core.MembershipPolicy.
// Ineligible nodes drop out of every cost minimization — for the
// zero-cost-handoff and relay mechanisms each per-request decision
// naturally migrates traffic off a draining node; for BE forwarding and
// multiple handoff a connection stuck on a draining handling node keeps
// being served there (no new connections arrive) until it closes.
func (e *ExtLARD) NodeUp(n core.NodeID)       { e.mem.setEligible(n, true) }
func (e *ExtLARD) NodeDraining(n core.NodeID) { e.mem.setEligible(n, false) }
func (e *ExtLARD) NodeDown(n core.NodeID) {
	e.mem.setEligible(n, false)
	e.mapping.DropNode(n)
}

// Name implements core.Policy.
func (e *ExtLARD) Name() string { return "extLARD" }

// Mechanism returns the mechanism this policy instance drives.
func (e *ExtLARD) Mechanism() core.Mechanism { return e.mech }

// Mapping exposes the target→node mapping table.
func (e *ExtLARD) Mapping() *cache.Mapping { return e.mapping }

// Stats returns (local serves, remote serves, migrations, cache bypasses)
// accumulated across assignments.
func (e *ExtLARD) Stats() (local, remote, migrations, bypasses int64) {
	return e.localServes.Load(), e.remoteServes.Load(), e.migrations.Load(), e.cacheBypasses.Load()
}

// diskLow reports whether node n's disk utilization is low per the paper's
// heuristic (fewer than DiskQueueLow queued disk events).
func (e *ExtLARD) diskLow(n core.NodeID) bool {
	return int(e.diskQ[n].Load()) < e.params.DiskQueueLow
}

// ConnOpen chooses the handling node with the basic LARD strategy.
//
//phttp:hotpath
func (e *ExtLARD) ConnOpen(c *core.ConnState, first core.Request) core.NodeID {
	n := pick(e.params, e.loads, e.mapping, first.ID, e.all, &e.mem)
	c.Handling = n
	e.loads.AddConn(n)
	e.mapping.Map(first.ID, first.Size, n)
	return n
}

// AssignBatch implements core.Policy. The first request ever assigned on the
// connection always lands on the handling node (it determined the handoff);
// subsequent requests follow the mechanism-specific logic above. The
// returned slice is the connection's reusable buffer: valid until the next
// AssignBatch on the same connection.
//
//phttp:hotpath
func (e *ExtLARD) AssignBatch(c *core.ConnState, batch core.Batch) []core.Assignment {
	if c.Handling == core.NoNode {
		panic("policy: AssignBatch before ConnOpen")
	}
	e.loads.ClearBatch(c)
	out := c.AssignBuf(len(batch))
	// Remote serving nodes of this batch collect in the connection's
	// scratch buffer (calls for one connection are serialized, so reuse is
	// safe); the buffer is handed back below so its capacity persists.
	remote := c.Scratch[:0]
	for i, r := range batch {
		var a core.Assignment
		if c.Requests == 0 {
			// The handoff decision already placed this request.
			a = core.Assignment{Node: c.Handling}
			e.localServes.Add(1)
		} else {
			a = e.assignNext(c, r)
		}
		out[i] = a
		if a.Forward {
			remote = append(remote, a.Node)
		}
		c.Requests++
	}
	c.Batches++
	// Charge each remote serving node 1/N of a unit for the batch.
	e.loads.ChargeBatch(c, c.Handling, remote, len(batch))
	c.Scratch = remote[:0]
	return out
}

// assignNext applies the Section 4.2 rules to one subsequent request.
//
//phttp:hotpath
func (e *ExtLARD) assignNext(c *core.ConnState, r core.Request) core.Assignment {
	h := c.Handling
	switch e.mech {
	case core.SingleHandoff:
		e.localServes.Add(1)
		return core.Assignment{Node: h}

	case core.BEForwarding, core.MultipleHandoff:
		mappedHere := e.mapping.IsMapped(r.ID, h)
		if mappedHere || e.diskLow(h) {
			// Serve locally: either the target is already cached here,
			// or the local disk is idle enough that reading it (and
			// thereby caching it — replication) beats the forwarding
			// overhead.
			e.localServes.Add(1)
			e.mapping.Map(r.ID, r.Size, h)
			return core.Assignment{Node: h}
		}
		// Candidates: the handling node plus any node caching the target.
		// The stack buffer covers any realistic cluster; pick only reads
		// the slice, so it stays off the heap.
		var candBuf [33]core.NodeID
		candidates := append(candBuf[:0], h)
		candidates = e.mapping.AppendNodesFor(candidates, r.ID)
		win := pick(e.params, e.loads, e.mapping, r.ID, candidates, &e.mem)
		if win == h {
			// No better holder: fetch from the local disk despite its
			// high utilization. The unified buffer cache holds what the
			// disk read regardless of any policy preference, and the
			// mapping is updated on every fetch from a back-end, so the
			// dispatcher records the target as cached here.
			e.localServes.Add(1)
			e.mapping.Map(r.ID, r.Size, h)
			return core.Assignment{Node: h}
		}
		if e.mech == core.MultipleHandoff {
			// Migrate the connection to the node caching the target.
			e.migrations.Add(1)
			e.loads.MoveConn(h, win)
			c.Handling = win
			e.mapping.Touch(r.ID, win)
			return core.Assignment{Node: win, Migrate: true, From: h}
		}
		// Lateral fetch. NFS client caching is disabled in the paper's
		// prototype, so forwarded content is never cached at the
		// handling node.
		e.remoteServes.Add(1)
		e.mapping.Touch(r.ID, win)
		return core.Assignment{Node: win, Forward: true}

	case core.ZeroCostHandoff, core.RelayFrontEnd:
		// Per-request basic LARD over all nodes.
		win := pick(e.params, e.loads, e.mapping, r.ID, e.all, &e.mem)
		e.mapping.Map(r.ID, r.Size, win)
		if win == h {
			e.localServes.Add(1)
			return core.Assignment{Node: h}
		}
		e.migrations.Add(1)
		e.loads.MoveConn(h, win)
		c.Handling = win
		return core.Assignment{Node: win, Migrate: true, From: h}

	default:
		panicUnknownMechanism(e.mech)
		return core.Assignment{}
	}
}

// panicUnknownMechanism is the cold formatting helper for assignNext's
// invariant panic, kept out of the annotated hot path so fmt stays off it.
func panicUnknownMechanism(m core.Mechanism) {
	panic(fmt.Sprintf("policy: unknown mechanism %v", m))
}

// BatchDone releases the fractional loads when the connection goes idle.
func (e *ExtLARD) BatchDone(c *core.ConnState) { e.loads.ClearBatch(c) }

// ConnClose releases the connection unit and any fractional loads.
func (e *ExtLARD) ConnClose(c *core.ConnState) {
	e.loads.ClearBatch(c)
	if c.Handling != core.NoNode {
		e.loads.RemoveConn(c.Handling)
		c.Handling = core.NoNode
	}
}

// ReportDiskQueue records node n's queued disk events.
func (e *ExtLARD) ReportDiskQueue(n core.NodeID, queued int) {
	e.diskQ[n].Store(int64(queued))
}

// Loads implements core.Policy.
func (e *ExtLARD) Loads() *core.LoadTracker { return e.loads }
