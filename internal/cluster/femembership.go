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

// pendingReq is one relayed request awaiting its response frame — the
// unit of re-dispatch. Created by the connection goroutine and published
// under pendingMu; after that only healthLoop mutates it (tries, node),
// so no per-request lock is needed.
type pendingReq struct {
	c     *feConn
	node  core.NodeID
	line  []byte // the REQ message, kept for re-dispatch
	tries int
	// start is the batch-completion instant of the request's original
	// dispatch — the latency clock's zero. Re-dispatch never resets it,
	// so a re-sent request's sample includes the detection and retry
	// delay instead of being dropped.
	start time.Time
}

// addPending registers a relayed request before it is written to its
// back-end, so a node death between write and response finds it.
func (fe *FrontEnd) addPending(c *feConn, seq int, n core.NodeID, line []byte) {
	fe.pendingMu.Lock()
	m := fe.pending[c.id]
	if m == nil {
		m = make(map[int]*pendingReq)
		fe.pending[c.id] = m
	}
	m[seq] = &pendingReq{c: c, node: n, line: line, start: c.batchStart}
	fe.pendingMu.Unlock()
}

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
// node just confirmed Down.
func (fe *FrontEnd) sweepNode(dead core.NodeID) {
	type victim struct {
		seq int
		p   *pendingReq
	}
	fe.pendingMu.Lock()
	var victims []victim
	for _, m := range fe.pending {
		for seq, p := range m {
			if p.node == dead {
				victims = append(victims, victim{seq, p})
			}
		}
	}
	fe.pendingMu.Unlock()
	for _, v := range victims {
		fe.redispatchPending(v.p, dead)
	}
}

// redispatchPending re-sends one in-flight request to a surviving node,
// within the retry budget. Budget exhausted — or nowhere left to go —
// falls back to closing the client connection: serveClient errors out,
// the connection tears down cleanly, and the client retries on a fresh
// connection that dispatches to live nodes.
func (fe *FrontEnd) redispatchPending(p *pendingReq, dead core.NodeID) {
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
		p.c.conn.Close()
		return
	}
	c := p.c
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
	link.ctrl, link.data = fresh.ctrl, fresh.data
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
