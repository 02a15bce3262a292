package dispatch

import (
	"sync/atomic"

	"phttp/internal/core"
)

// Membership support: the engine keeps its own per-node up/down/drain
// view (independent of whether the policy cares) and forwards
// transitions to policies implementing core.MembershipPolicy. Drivers —
// the simulator's churn events and the prototype front-end's membership
// table — call the SetNode* methods; the dispatch paths gate admission
// on HasUp, and a connection's owner re-dispatches its work lost on a
// dead node through Redispatch.

// nodePhase is the engine's coarse per-node view. It mirrors the
// membership.Table states that matter to dispatch; Joining and Suspect
// are front-end concerns (a Suspect node keeps receiving work until
// confirmed Down).
type nodePhase int32

const (
	phaseUp nodePhase = iota
	phaseDraining
	phaseDown
)

// initMembership sizes the engine's node-state array (all Up).
func (e *Engine) initMembership(n int) {
	e.nodePhases = make([]atomic.Int32, n)
	e.upNodes.Store(int32(n))
}

// setPhase moves node n to phase p, maintaining the up-node count and
// notifying the policy exactly once per actual transition. Safe for
// concurrent callers; transitions are idempotent.
func (e *Engine) setPhase(n core.NodeID, p nodePhase) {
	for {
		old := nodePhase(e.nodePhases[n].Load())
		if old == p {
			return
		}
		if !e.nodePhases[n].CompareAndSwap(int32(old), int32(p)) {
			continue
		}
		if old == phaseUp {
			e.upNodes.Add(-1)
		}
		if p == phaseUp {
			e.upNodes.Add(1)
		}
		if e.membership != nil {
			switch p {
			case phaseUp:
				e.membership.NodeUp(n)
			case phaseDraining:
				e.membership.NodeDraining(n)
			case phaseDown:
				e.membership.NodeDown(n)
			}
		}
		return
	}
}

// SetNodeUp marks node n eligible for new work ((re)join complete).
func (e *Engine) SetNodeUp(n core.NodeID) { e.setPhase(n, phaseUp) }

// SetNodeDraining starts a graceful leave: no new placements on n,
// existing connections finish.
func (e *Engine) SetNodeDraining(n core.NodeID) { e.setPhase(n, phaseDraining) }

// SetNodeDown marks node n dead: policies drop it from candidate sets
// (the LARD family also drops its mappings, since a crashed back-end
// restarts cold); the driver re-dispatches n's in-flight work.
func (e *Engine) SetNodeDown(n core.NodeID) { e.setPhase(n, phaseDown) }

// nodeIsUp reports whether node n is currently Up in the engine's view.
func (e *Engine) nodeIsUp(n core.NodeID) bool {
	return nodePhase(e.nodePhases[n].Load()) == phaseUp
}

// NodeIsDown reports whether node n is confirmed Down.
func (e *Engine) NodeIsDown(n core.NodeID) bool {
	return nodePhase(e.nodePhases[n].Load()) == phaseDown
}

// HasUp reports whether any node can accept new work. Drivers gate
// admission on it: the prototype answers 503 Service Unavailable, the
// simulator fails the connection against the retry budget.
func (e *Engine) HasUp() bool { return e.upNodes.Load() > 0 }

// pickUp returns the least-loaded Up node other than exclude (pass
// core.NoNode to exclude nothing), or NoNode when no node qualifies.
// It is the engine-level re-dispatch target choice: deterministic given
// the load state (ties break toward the lower node ID), policy-agnostic
// — the policy already recorded the original placement; moving the
// refugee work is a mechanism action.
func (e *Engine) pickUp(exclude core.NodeID) core.NodeID {
	loads := e.pol.Loads()
	best := core.NoNode
	for i := 0; i < e.spec.Nodes; i++ {
		n := core.NodeID(i)
		if n == exclude || !e.nodeIsUp(n) {
			continue
		}
		if best == core.NoNode || loads.Load(n) < loads.Load(best) {
			best = n
		}
	}
	return best
}

// moveConn forcibly reassigns connection c's handling node to `to`,
// transferring its connection-load unit: Redispatch moves a connection off
// a dead handling node — a mechanism action, deliberately outside the
// policy (which finds out through the load tracker it already reads).
// No-op on a closed connection.
func (e *Engine) moveConn(c *Conn, to core.NodeID) {
	if c.closed.Load() || c.cs.Handling == core.NoNode || c.cs.Handling == to {
		return
	}
	e.store.MoveConn(&c.cs, to)
}

// Redispatch is the one rule for work lost on node dead, in both worlds,
// called by the connection's owner (Conn state is owner-serialized).
// tries counts the attempts made for the lost work, this one included;
// while it is within budget, Redispatch returns the least-loaded Up node
// other than dead and moves c there if c's handling node is Down. Past
// the budget, or with no Up node left, it returns NoNode and moves
// nothing: the caller fails the work. A caller that only moves c off a
// Down handling node, retrying no work, passes tries 0.
func (e *Engine) Redispatch(c *Conn, dead core.NodeID, tries, budget int) core.NodeID {
	if tries > budget {
		return core.NoNode
	}
	to := e.pickUp(dead)
	if to != core.NoNode && e.NodeIsDown(c.Handling()) {
		e.moveConn(c, to)
	}
	return to
}
