package cluster

import (
	"fmt"
	"time"

	"phttp/internal/core"
	"phttp/internal/membership"
)

// Elastic membership at the front-end (DESIGN.md §14): the membership
// table turns control-link evidence into state transitions, the listener
// below mirrors them into the dispatch engine's eligibility view, and
// healthLoop ticks the failure detector. Relayed work lost on a node
// confirmed Down is re-dispatched by its own connection's goroutine,
// through the engine's one re-dispatch rule (redispatchLost).

// onMembership mirrors table transitions into the dispatch engine. It
// runs under the table lock (membership.Listener contract), so it must
// not call back into the table. A Down transition wakes every relayed
// connection, whose goroutine then re-dispatches its own lost requests,
// and every connection handed off to the dead node, whose goroutine then
// resets it: the simulator re-dispatches such a connection, but here the
// dead node may have written part of a response to the client. Suspect
// changes nothing here — a Suspect node keeps its traffic until the
// confirm window expires.
func (fe *FrontEnd) onMembership(n core.NodeID, from, to membership.State) {
	_ = from
	switch to {
	case membership.Up:
		fe.eng.SetNodeUp(n)
	case membership.Draining:
		fe.eng.SetNodeDraining(n)
	case membership.Down:
		fe.eng.SetNodeDown(n)
		fe.relayMu.Lock()
		for _, c := range fe.relays {
			wake(c.ready)
		}
		fe.relayMu.Unlock()
		fe.resetHandedTo(n)
	}
}

// resetHandedTo wakes every client socket handed off to node n; each one's
// own goroutine then resets its connection.
func (fe *FrontEnd) resetHandedTo(n core.NodeID) {
	fe.socksMu.Lock()
	defer fe.socksMu.Unlock()
	for s, node := range fe.socks {
		if node == n {
			s.wake(&s.down)
		}
	}
}

// suspect reports a control-link failure for node n, unless the
// front-end is shutting down (teardown closes every link; that is not
// evidence about the back-ends).
func (fe *FrontEnd) suspect(n core.NodeID) {
	select {
	case <-fe.closed:
		return
	default:
	}
	fe.mem.Suspect(n, time.Now())
}

// healthLoop owns membership timing: it ticks the failure detector
// (Suspect after HeartbeatTimeout of silence, Down after ConfirmWindow).
func (fe *FrontEnd) healthLoop() {
	defer fe.wg.Done()
	ticker := time.NewTicker(healthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-fe.closed:
			return
		case <-ticker.C:
			fe.mem.Tick(time.Now())
		}
	}
}

// redispatchLost re-sends c's unanswered relayed requests, seq from up,
// whose node is confirmed Down, each to the node the engine's re-dispatch
// rule names; the rule moves the connection too if its handling node is
// the dead one. Past the retry budget — or with nowhere left to go — it
// returns errRelayDropped, and the client connection tears down cleanly;
// the client retries on a fresh connection that dispatches to live nodes.
// Owner-goroutine only.
func (fe *FrontEnd) redispatchLost(c *feConn, from int) error {
	for {
		r := fe.lostRequest(c, from)
		if r == nil {
			return nil
		}
		r.tries++
		done := fe.trackDispatch()
		to := fe.eng.Redispatch(c.ec, r.node, r.tries, fe.cfg.RetryBudget)
		done()
		if to == core.NoNode {
			return errRelayDropped
		}
		r.node = to
		msgs := r.line
		if !c.setReqNode(to) {
			c.line = append(appendRelay(c.line[:0], c.id), r.line...)
			msgs = c.line
		}
		if err := fe.sendCtrl(to, msgs); err != nil {
			fe.suspect(to)
			continue
		}
		fe.redispatched.Add(1)
	}
}

// lostRequest returns c's first unanswered relayed request, seq from up,
// whose node is confirmed Down, or nil.
func (fe *FrontEnd) lostRequest(c *feConn, from int) *relayReq {
	fe.relayMu.Lock()
	defer fe.relayMu.Unlock()
	for seq := from; seq < c.seq; seq++ {
		if r := c.relayed[seq]; r != nil && r.frame == nil && fe.eng.NodeIsDown(r.node) {
			return r
		}
	}
	return nil
}

// Membership exposes the liveness table (admin surface, tests).
func (fe *FrontEnd) Membership() *membership.Table { return fe.mem }

// Unavailable returns how many client connections were refused with
// 503 Service Unavailable because no back-end was Up.
func (fe *FrontEnd) Unavailable() int64 { return fe.unavailable.Load() }

// Redispatches returns how many in-flight requests were re-sent to a
// surviving node after their serving node was confirmed Down.
func (fe *FrontEnd) Redispatches() int64 { return fe.redispatched.Load() }

// AddBackend (re)connects slot id to the back-end at ep and marks it Up.
// The slot universe is fixed at construction (FrontEndConfig.Nodes) —
// elasticity revives a Down or vacant slot with a fresh process, it does
// not grow per-node arrays. Any previous conns on the slot are torn down
// first; their read loops drain and exit on their own conns. So are the
// client connections handed off over the old session, which the back-end
// ends with it (Backend.endSession), as on a Down transition.
func (fe *FrontEnd) AddBackend(id core.NodeID, ep BackendEndpoints) error {
	if int(id) < 0 || int(id) >= len(fe.links) {
		return fmt.Errorf("cluster: backend slot %v out of range [0,%d)", id, len(fe.links))
	}
	select {
	case <-fe.closed:
		return fmt.Errorf("cluster: front-end closed")
	default:
	}
	fe.resetHandedTo(id)
	link := fe.links[id]
	link.close()
	fresh, err := fe.dialRetry(id, ep)
	if err != nil {
		fe.mem.MarkDown(id)
		return err
	}
	link.ctrlMu.Lock()
	link.ctrl = fresh.ctrl
	link.ctrlMu.Unlock()
	fe.endpoints[id] = ep
	fe.mem.MarkUp(id, time.Now())
	return nil
}

// RemoveBackend drains slot id: no new work lands on it, existing work
// completes, and the control link stays open until the process leaves
// (link loss while Draining confirms Down directly). A later AddBackend
// revives the slot.
func (fe *FrontEnd) RemoveBackend(id core.NodeID) error {
	if int(id) < 0 || int(id) >= len(fe.links) {
		return fmt.Errorf("cluster: backend slot %v out of range [0,%d)", id, len(fe.links))
	}
	fe.mem.Drain(id)
	return nil
}
