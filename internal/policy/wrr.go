package policy

import (
	"fmt"
	"sync/atomic"

	"phttp/internal/core"
)

// WRR is the weighted round-robin policy used by commercial layer-4 cluster
// front-ends: connections are assigned to back-ends in round-robin order
// weighted by the nodes' current load (and, optionally, static capacity
// weights for heterogeneous clusters), with no regard for the requested
// content. All requests on a connection stay on the handling node (the WRR
// mechanism is equivalent to simple TCP handoff).
//
// WRR is safe for concurrent dispatch: loads are atomic and the round-robin
// cursor is an atomic hint — two racing ConnOpens may read the same cursor
// and break ties identically, which skews nothing (the load comparison, not
// the cursor, carries the balancing).
type WRR struct {
	memberSet
	loads   *core.LoadTracker
	weights []float64
	next    atomic.Int64 // round-robin tie-break cursor
}

var (
	_ core.Policy           = (*WRR)(nil)
	_ core.MembershipPolicy = (*WRR)(nil)
)

// NewWRR returns a WRR policy over n equally weighted back-end nodes.
func NewWRR(n int) *WRR {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return NewWeightedWRR(w)
}

// NewWeightedWRR returns a WRR policy with per-node capacity weights: a
// node with weight 2 is considered half as loaded as an equally busy node
// with weight 1 (the "weighted" in commercial front-ends' weighted
// round-robin). Weights must be positive.
func NewWeightedWRR(weights []float64) *WRR {
	for i, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("policy: WRR weight %d is %v, must be positive", i, w))
		}
	}
	w := &WRR{loads: core.NewLoadTracker(len(weights)), weights: weights}
	w.init(len(weights))
	return w
}

// Name implements core.Policy.
func (w *WRR) Name() string { return "WRR" }

// ConnOpen assigns the connection to the least weighted-load eligible
// node, breaking ties round-robin, and charges it one load unit. With
// every node ineligible (the driver gates dispatch on that) it degrades
// to the unfiltered choice.
//
//phttp:hotpath
func (w *WRR) ConnOpen(c *core.ConnState, _ core.Request) core.NodeID {
	n := w.loads.Nodes()
	cursor := int(w.next.Load())
	mem := w.active()
	best := core.NoNode
	bestLoad := 0.0
	for i := 0; i < n; i++ {
		cand := core.NodeID((cursor + i) % n)
		if mem != nil && !mem.eligible(cand) {
			continue
		}
		l := w.loads.Load(cand) / w.weights[cand]
		if best == core.NoNode || l < bestLoad {
			best, bestLoad = cand, l
		}
	}
	if best == core.NoNode {
		for i := 0; i < n; i++ {
			cand := core.NodeID((cursor + i) % n)
			l := w.loads.Load(cand) / w.weights[cand]
			if best == core.NoNode || l < bestLoad {
				best, bestLoad = cand, l
			}
		}
	}
	w.next.Store(int64((int(best) + 1) % n))
	c.Handling = best
	w.loads.AddConn(best)
	return best
}

// AssignBatch sends every request to the handling node. The returned slice
// is the connection's reusable buffer: valid until the next AssignBatch on
// the same connection.
//
//phttp:hotpath
func (w *WRR) AssignBatch(c *core.ConnState, batch core.Batch) []core.Assignment {
	out := c.AssignBuf(len(batch))
	for i := range batch {
		out[i] = core.Assignment{Node: c.Handling}
		c.Requests++
	}
	c.Batches++
	return out
}

// BatchDone is a no-op: WRR never charges fractional loads.
func (w *WRR) BatchDone(*core.ConnState) {}

// ConnClose releases the connection's load unit.
func (w *WRR) ConnClose(c *core.ConnState) {
	if c.Handling != core.NoNode {
		w.loads.RemoveConn(c.Handling)
		c.Handling = core.NoNode
	}
}

// ReportDiskQueue is ignored: WRR uses connection counts only.
func (w *WRR) ReportDiskQueue(core.NodeID, int) {}

// Loads implements core.Policy.
func (w *WRR) Loads() *core.LoadTracker { return w.loads }
