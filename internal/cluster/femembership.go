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
// healthLoop owns the clock — it ticks the failure detector and
// re-dispatches in-flight relayed work off nodes confirmed Down.

// onMembership mirrors table transitions into the dispatch engine. It
// runs under the table lock (membership.Listener contract), so it must
// not call back into the table; Down sweeps are handed to healthLoop
// through sweepCh. Suspect changes nothing here — a Suspect node keeps
// its traffic until the confirm window expires.
func (fe *FrontEnd) onMembership(n core.NodeID, from, to membership.State) {
	_ = from
	switch to {
	case membership.Up:
		fe.eng.SetNodeUp(n)
	case membership.Draining:
		fe.eng.SetNodeDraining(n)
	case membership.Down:
		fe.eng.SetNodeDown(n)
		select {
		case fe.sweepCh <- n:
		default:
			// Sweep queue full: requests on n fail their sends and the
			// affected connections close — the coarse fallback.
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
// (Suspect after HeartbeatTimeout of silence, Down after ConfirmWindow)
// and runs the Down sweeps queued by the listener.
func (fe *FrontEnd) healthLoop() {
	defer fe.wg.Done()
	interval := fe.cfg.HealthInterval
	if interval <= 0 {
		interval = DefaultHealthInterval
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-fe.closed:
			return
		case n := <-fe.sweepCh:
			fe.sweepNode(n)
		case <-ticker.C:
			fe.mem.Tick(time.Now())
		}
	}
}

// sweepNode re-dispatches every relayed request still in flight on a
// node just confirmed Down: sent there, its response not arrived.
func (fe *FrontEnd) sweepNode(dead core.NodeID) {
	type victim struct {
		c *feConn
		r *relayReq
	}
	fe.relayMu.Lock()
	var victims []victim
	for _, c := range fe.relays {
		for _, r := range c.relayed {
			if r.node == dead && r.frame == nil {
				victims = append(victims, victim{c, r})
			}
		}
	}
	fe.relayMu.Unlock()
	for _, v := range victims {
		fe.redispatchPending(v.c, v.r, dead)
	}
}

// redispatchPending re-sends one in-flight request to a surviving node,
// within the retry budget. Budget exhausted — or nowhere left to go —
// falls back to closing the client connection: serveClient errors out,
// the connection tears down cleanly, and the client retries on a fresh
// connection that dispatches to live nodes.
func (fe *FrontEnd) redispatchPending(c *feConn, p *relayReq, dead core.NodeID) {
	budget := fe.cfg.RetryBudget
	if budget == 0 {
		budget = DefaultRetryBudget
	}
	p.tries++
	to := core.NoNode
	if p.tries <= budget {
		done := fe.trackDispatch()
		to = fe.eng.PickUp(dead)
		done()
	}
	if to == core.NoNode {
		fe.dropRelayed(c.id)
		return
	}
	// The connection-load move must run on the connection's own
	// goroutine (the engine's Conn state is owner-serialized), so only
	// record the target here; dispatchBatch applies it next batch.
	c.mu.Lock()
	c.pendingMove = to
	c.mu.Unlock()
	p.node = to
	msgs := p.line
	if !c.setReqNode(to) {
		msgs = append(appendRelay(nil, c.id), p.line...)
	}
	if err := fe.sendCtrl(to, msgs); err != nil {
		fe.suspect(to)
		return
	}
	fe.redispatched.Inc()
}

// Membership exposes the liveness table (admin surface, tests).
func (fe *FrontEnd) Membership() *membership.Table { return fe.mem }

// Unavailable returns how many client connections were refused with
// 503 Service Unavailable because no back-end was Up.
func (fe *FrontEnd) Unavailable() int64 { return fe.unavailable.Value() }

// Redispatches returns how many in-flight requests were re-sent to a
// surviving node after their serving node was confirmed Down.
func (fe *FrontEnd) Redispatches() int64 { return fe.redispatched.Value() }

// AddBackend (re)connects slot id to the back-end at ep and marks it Up.
// The slot universe is fixed at construction (FrontEndConfig.Nodes) —
// elasticity revives a Down or vacant slot with a fresh process, it does
// not grow per-node arrays. Any previous conns on the slot are torn down
// first; their read loops drain and exit on their own conns.
func (fe *FrontEnd) AddBackend(id core.NodeID, ep BackendEndpoints) error {
	if int(id) < 0 || int(id) >= len(fe.links) {
		return fmt.Errorf("cluster: backend slot %v out of range [0,%d)", id, len(fe.links))
	}
	select {
	case <-fe.closed:
		return fmt.Errorf("cluster: front-end closed")
	default:
	}
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
