package sim

import (
	"fmt"

	"phttp/internal/cache"
	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/policy"
	"phttp/internal/simcore"
	"phttp/internal/trace"
)

// The simulator's event flow is an explicit state machine over pooled run
// records: every event is the completion of work on a simcore.Resource —
// the front-end's CPU, a node's CPU or its disk — scheduled closure-free
// through Resource.Call with a *connRun or *reqRun, a phase code and the
// node whose resource the event completes on. Each resource's completions
// wait in its own FIFO lane of the engine, so the engine's heap orders one
// key per busy resource, not one per pending event; only churn and
// tier-sync events are scheduled around the resources (Engine.Call).
// Combined with the ID-keyed node caches and the policies' reusable
// buffers, steady-state stepping allocates nothing per event.
//
// Events fire in (time, seq) order, seq being scheduling order: the phase
// graph schedules the same work in the same order with the same costs
// whatever holds the pending events, which is what keeps every result
// bit-identical across changes to the queue.

// Connection-level phases (connStep).
const (
	cpOpenFE  = iota // front-end accept (+ handoff) finished
	cpOpenBE         // back-end connection setup finished
	cpCloseFE        // relaying FE teardown finished
	cpCloseBE        // back-end teardown finished
)

// Request-level phases (reqStep).
const (
	rqFE         = iota // front-end per-request work finished
	rqLocalCPU          // serving node's per-request CPU finished
	rqLocalDisk         // serving node's disk read finished
	rqLocalXmit         // serving node's transmit finished
	rqRelayOut          // relaying FE's response transmit finished
	rqRemoteCPU         // remote node's request+forward CPU finished
	rqRemoteDisk        // remote node's disk read finished
	rqFwdXmit           // handling node's receive+retransmit finished
	rqMigFE             // FE's migration coordination finished
	rqMigNewCPU         // new handling node's handoff work finished
)

// node is one simulated back-end: CPU, disk, main-memory cache.
type node struct {
	cpu  simcore.Resource
	disk simcore.Resource
	// cache is keyed by interned TargetID: the per-request lookup/insert
	// path is a slice index, not a string hash.
	cache *cache.IDLRU
}

// Sim is one simulation run in progress.
type Sim struct {
	cfg   Config
	eng   *simcore.Engine
	nodes []*node
	// fes holds one front-end CPU per tier member; fes[0] is the paper's
	// single front-end. disp is front-end 0's dispatch engine — the
	// whole tier in single-front-end runs, and the engine-level phase
	// view (identical on every member) in scale-out ones. engs lists
	// every front-end's engine; members, a scale-out run's tier members
	// (nil otherwise).
	fes     []simcore.Resource
	disp    *dispatch.Engine
	engs    []*dispatch.Engine
	members []*dstate.Member
	// multiFE gates every scale-out check the way hasChurn gates churn:
	// a single-front-end run takes none of them, so its event sequence —
	// and therefore its result — stays bit-identical to the pre-tier
	// simulator.
	multiFE  bool
	admitIdx int
	trace    *trace.Trace

	nextConn int // next trace connection to admit
	active   int

	// hasChurn gates every down-node check: a churn-free run takes none
	// of them, so its event sequence — and therefore its result — is
	// bit-identical to a run of the pre-churn simulator.
	hasChurn     bool
	redispatches int64
	failed       int64

	// freeConns and freeReqs pool the per-connection and per-request run
	// records; a drained record is reused by the next admission instead of
	// burdening the garbage collector.
	freeConns []*connRun
	freeReqs  []*reqRun

	// measurement
	served      int64
	servedBytes int64
	delaySum    core.Micros
	// hist records every served request's delay (no warmup gating on
	// the record path); warmHist is its snapshot at the warm point, so
	// the reported distribution is the subtraction of the two.
	hist         *core.LatencyHist
	warmHist     *core.LatencyHist
	warmDelaySum core.Micros
	warmConns    int
	doneConns    int
	warmServed   int64
	warmBytes    int64
	warmTime     core.Micros
	warmed       bool
	warmFEBusy   core.Micros
	warmCPUBusy  []core.Micros
	warmDiskBusy []core.Micros
}

// Run simulates the trace under cfg and returns the measured result. For
// non-P-HTTP combos the trace is flattened to HTTP/1.0 form per call;
// RunGrid flattens once per grid.
//
// Traces built by the generator (Synth.Generate) arrive interned
// and are only read, so concurrent Run calls may share one. A hand-built
// trace (Interner == nil) is interned in place on first use — run it once,
// or call EnsureIDs yourself, before sharing it across goroutines.
func Run(cfg Config, tr *trace.Trace) (Result, error) {
	if tr.Interner == nil {
		tr.EnsureIDs()
	}
	workload := tr
	if !cfg.Combo.PHTTP {
		workload = tr.Flatten10()
	}
	return runOn(cfg, workload)
}

// RunPrepared simulates an already-prepared workload: interned
// (EnsureIDs) and pre-flattened when the combo wants HTTP/1.0, so a caller
// timing one grid point at a time (the benchmark's traced sweep) shares
// one flattening across points instead of paying Run's per-call
// Flatten10. Results are identical to Run on the corresponding P-HTTP
// trace.
func RunPrepared(cfg Config, workload *trace.Trace) (Result, error) {
	return runOn(cfg, workload)
}

// runOn simulates an already-prepared workload: interned (EnsureIDs) and
// pre-flattened when the combo wants HTTP/1.0. The workload is only read,
// so parallel sweep workers share one across runs. Validation lives here —
// the one entry point every run, direct or sweep-spawned, passes through.
func runOn(cfg Config, workload *trace.Trace) (Result, error) {
	return runOnWorker(cfg, workload, newWorker())
}

// runOnWorker is runOn with caller-owned run state: sweep workers hand
// each job the same worker (its engine and node caches reset between
// runs), so the engine's heap, lane rings and event-body slab and the
// caches' slabs and position tables are grown once and reused across the
// worker's grid points instead of being reallocated per run.
func runOnWorker(cfg Config, workload *trace.Trace, w *worker) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	spec := cfg.dispatchSpec()
	spec.Interner = workload.Interner
	frontends := cfg.Frontends
	if frontends < 1 {
		frontends = 1
	}
	var (
		engs    []*dispatch.Engine
		members []*dstate.Member
	)
	if frontends == 1 && cfg.FEState == dstate.ModeLocal {
		// The single-front-end path builds exactly the pre-tier engine
		// (a dstate.Local store), keeping the figure goldens
		// bit-identical.
		disp, err := dispatch.NewEngine(spec)
		if err != nil {
			return Result{}, err
		}
		engs = []*dispatch.Engine{disp}
	} else {
		var err error
		engs, members, err = dispatch.NewTierEngines(spec, cfg.FEState, frontends)
		if err != nil {
			return Result{}, err
		}
	}
	eng := w.eng
	eng.Reset()
	s := &Sim{
		cfg:     cfg,
		eng:     eng,
		fes:     make([]simcore.Resource, frontends),
		disp:    engs[0],
		engs:    engs,
		members: members,
		multiFE: frontends > 1,
		trace:   workload,
		hist:    core.NewLatencyHist(),
	}
	for i := range s.fes {
		s.fes[i] = eng.NewResource()
	}
	s.nodes = make([]*node, cfg.Nodes)
	for i := range s.nodes {
		s.nodes[i] = &node{cpu: eng.NewResource(), disk: eng.NewResource(), cache: w.nodeCache(i, cfg.CacheBytes)}
	}
	s.warmConns = int(cfg.WarmupFrac * float64(len(workload.Conns)))
	if s.warmConns == 0 {
		// No warmup: measure from time zero. Without this the snapshot
		// would be taken at the first connection close, silently dropping
		// that connection's requests from the measured counts.
		s.warmed = true
	}
	s.warmCPUBusy = make([]core.Micros, cfg.Nodes)
	s.warmDiskBusy = make([]core.Micros, cfg.Nodes)

	if len(cfg.Churn) > 0 {
		s.hasChurn = true
		for i := range cfg.Churn {
			if ev := cfg.Churn[i]; ev.At <= 0 {
				// Applied before admission: the run starts with the node
				// already down/draining.
				s.applyChurn(ev)
			} else {
				s.eng.Call(ev.At, churnStep, s, int64(i), 0)
			}
		}
	}

	if cfg.Staleness > 0 { // replicated only (Validate)
		s.eng.Call(cfg.Staleness, syncStep, s, 0, 0)
	}

	inFlight := cfg.ConnsPerNode * cfg.Nodes
	for i := 0; i < inFlight && s.admit(); i++ {
	}
	events := s.eng.Run(0)
	if s.active != 0 || s.nextConn != len(workload.Conns) {
		return Result{}, fmt.Errorf("sim: deadlock, %d connections still active after event queue drained", s.active)
	}
	res := s.result()
	res.Events = int64(events)
	return res, nil
}

// --- typed event dispatch ---

// connStep and reqStep are the two Actions every simulator event uses;
// package-level functions, so scheduling them allocates nothing.
//
//phttp:hotpath
func connStep(obj any, phase, node int64) {
	obj.(*connRun).step(int(phase), core.NodeID(node))
}

//phttp:hotpath
func reqStep(obj any, phase, node int64) {
	obj.(*reqRun).step(int(phase), core.NodeID(node))
}

// releaseCPU is the fire-and-forget completion of CPU work with no
// continuation (the old node's side of a migration handoff).
//
//phttp:hotpath
func releaseCPU(obj any, _, node int64) {
	obj.(*Sim).nodes[node].cpu.Release()
}

// syncStep fires one replication round — every member's Sync, in
// front-end order, so each receiver applies the origins' deltas in
// ascending origin order — and schedules the next while connections
// remain in flight (the event queue must drain when the trace completes).
func syncStep(obj any, _, _ int64) {
	s := obj.(*Sim)
	for _, m := range s.members {
		m.Sync()
	}
	if s.active > 0 {
		s.eng.Call(s.eng.Now()+s.cfg.Staleness, syncStep, s, 0, 0)
	}
}

// churnStep fires one scheduled membership event (idx into cfg.Churn).
func churnStep(obj any, idx, _ int64) {
	s := obj.(*Sim)
	s.applyChurn(s.cfg.Churn[idx])
}

// applyChurn performs one membership transition. A crash additionally
// clears the node's main-memory cache: a later join models a cold
// restart. In-flight work on a crashed node is not chased down here —
// each of its events observes the Down state when it fires and
// re-dispatches then (the prototype analogue: the front-end learns of
// the crash from the broken control link, not from the requests).
func (s *Sim) applyChurn(ev ChurnEvent) {
	// Every front-end learns of the transition at once — the prototype
	// analogue is each front-end's own membership table observing the
	// same control-link break.
	switch ev.Kind {
	case ChurnJoin:
		for _, e := range s.engs {
			e.SetNodeUp(ev.Node)
		}
	case ChurnLeave:
		for _, e := range s.engs {
			e.SetNodeDraining(ev.Node)
		}
	case ChurnCrash:
		for _, e := range s.engs {
			e.SetNodeDown(ev.Node)
		}
		s.nodes[ev.Node].cache.Clear()
	}
}

// nodeLost reports whether node n crashed (gated on hasChurn so
// churn-free runs never take the atomic load).
func (s *Sim) nodeLost(n core.NodeID) bool {
	return s.hasChurn && s.disp.NodeIsDown(n)
}

// feCost scales a front-end CPU cost by the configured front-end speedup.
func (s *Sim) feCost(cost core.Micros) core.Micros {
	if s.cfg.FESpeedup > 1 {
		cost = core.Micros(float64(cost) / s.cfg.FESpeedup)
	}
	return cost
}

// feCall schedules cost on front-end fe's CPU and dispatches
// act(obj, phase, -1) at completion; the handler releases the front-end.
//
//phttp:hotpath
func (s *Sim) feCall(fe int, cost core.Micros, act simcore.Action, obj any, phase int64) {
	s.fes[fe].Call(s.feCost(cost), act, obj, phase, -1)
}

// feCallRemote charges fire-and-forget CPU work on front-end fe — the
// owner's side of a forwarded state transaction in sharded mode.
func (s *Sim) feCallRemote(fe int, cost core.Micros) {
	s.fes[fe].Call(s.feCost(cost), feRelease, s, int64(fe), 0)
}

// feRelease releases front-end fe's CPU (fire-and-forget completions).
//
//phttp:hotpath
func feRelease(obj any, fe, _ int64) {
	obj.(*Sim).fes[fe].Release()
}

// feBusy sums the front-end CPUs' busy time (one term per tier member).
func (s *Sim) feBusy() core.Micros {
	var t core.Micros
	for i := range s.fes {
		t += s.fes[i].BusyTotal()
	}
	return t
}

// reportDiskQueue delivers a disk-queue report to every front-end's
// engine — in the prototype each front-end holds its own control links,
// so each hears every back-end directly. The single-front-end path skips
// the loop.
//
//phttp:hotpath
func (s *Sim) reportDiskQueue(n core.NodeID, queued int) {
	if !s.multiFE {
		s.disp.ReportDiskQueue(n, queued)
		return
	}
	for _, e := range s.engs {
		e.ReportDiskQueue(n, queued)
	}
}

// cpuCall schedules cost on node n's CPU and dispatches act(obj, phase, n)
// at completion; the handler releases the CPU.
//
//phttp:hotpath
func (s *Sim) cpuCall(n core.NodeID, cost core.Micros, act simcore.Action, obj any, phase int64) {
	s.nodes[n].cpu.Call(cost, act, obj, phase, int64(n))
}

// diskCall schedules a read of size bytes on node n's disk, keeping the
// policy's view of the disk queue current (the prototype's control-session
// reports, idealized to instantaneous); the handler releases the disk and
// reports again.
//
//phttp:hotpath
func (s *Sim) diskCall(n core.NodeID, size int64, act simcore.Action, obj any, phase int64) {
	nd := s.nodes[n]
	nd.disk.Call(s.cfg.Disk.ReadTime(size), act, obj, phase, int64(n))
	s.reportDiskQueue(n, nd.disk.Queued())
}

// panicUnknownPhase is the cold formatting helper for the state-machine
// panics: the annotated step hot paths must not call fmt themselves.
func panicUnknownPhase(kind string, phase int) {
	panic(fmt.Sprintf("sim: unknown %s phase %d", kind, phase))
}

// --- run-record pools ---

//phttp:hotpath
func (s *Sim) getConn() *connRun {
	if n := len(s.freeConns); n > 0 {
		cr := s.freeConns[n-1]
		s.freeConns = s.freeConns[:n-1]
		return cr
	}
	return &connRun{sim: s}
}

//phttp:hotpath
func (s *Sim) putConn(cr *connRun) {
	cr.conn = core.Connection{}
	cr.ec = nil
	cr.disp, cr.fe = nil, 0
	cr.batchIdx, cr.outstanding, cr.batchStart = 0, 0, 0
	cr.tries, cr.aborted = 0, false
	s.freeConns = append(s.freeConns, cr)
}

//phttp:hotpath
func (s *Sim) getReq(cr *connRun, r core.Request, a core.Assignment) *reqRun {
	var rr *reqRun
	if n := len(s.freeReqs); n > 0 {
		rr = s.freeReqs[n-1]
		s.freeReqs = s.freeReqs[:n-1]
	} else {
		rr = &reqRun{}
	}
	*rr = reqRun{cr: cr, id: r.ID, size: r.Size, a: a}
	return rr
}

//phttp:hotpath
func (s *Sim) putReq(rr *reqRun) {
	rr.cr = nil
	s.freeReqs = append(s.freeReqs, rr)
}

// admit starts the next trace connection that carries a request; it
// reports whether one was available.
func (s *Sim) admit() bool {
	for s.nextConn < len(s.trace.Conns) {
		conn := s.trace.Conns[s.nextConn]
		s.nextConn++
		if conn.Requests() == 0 {
			continue
		}
		s.active++
		cr := s.getConn()
		cr.conn = conn
		// Round-robin client arrival over the front-end tier (a DNS-RR or
		// L4 spray in front of the front-ends); one front-end takes them
		// all in the single-front-end model.
		cr.fe = s.admitIdx % len(s.engs)
		cr.disp = s.engs[cr.fe]
		s.admitIdx++
		cr.open()
		return true
	}
	return false
}

// connDone finishes a connection's lifecycle, admits the next, and recycles
// the run record.
func (s *Sim) connDone(cr *connRun) {
	cr.disp.ConnClose(cr.ec)
	s.active--
	s.doneConns++
	if !s.warmed && s.doneConns >= s.warmConns {
		s.warmed = true
		s.warmServed = s.served
		s.warmBytes = s.servedBytes
		s.warmDelaySum = s.delaySum
		s.warmHist = s.hist.Snapshot()
		s.warmTime = s.eng.Now()
		s.warmFEBusy = s.feBusy()
		for i, n := range s.nodes {
			s.warmCPUBusy[i] = n.cpu.BusyTotal()
			s.warmDiskBusy[i] = n.disk.BusyTotal()
			n.cache.ResetStats()
		}
	}
	s.putConn(cr)
	s.admit()
}

// connRun drives one client connection through its batches.
type connRun struct {
	sim  *Sim
	conn core.Connection
	ec   *dispatch.Conn
	// disp/fe pin the connection to the front-end that admitted it: its
	// accept, per-request relay work and dispatch decisions run there.
	disp *dispatch.Engine
	fe   int

	batchIdx    int
	outstanding int
	batchStart  core.Micros

	// tries counts crash re-dispatch attempts of the connection open;
	// aborted marks a connection whose retry budget ran out (it closes
	// after the current batch drains, unserved requests counted failed).
	tries   int
	aborted bool
}

// open runs the connection-establishment path: front-end accept + dispatch,
// then the mechanism's per-connection work at the handling node, then the
// first batch.
func (c *connRun) open() {
	s := c.sim
	first := c.conn.Batches[0][0]
	c.ec, _ = c.disp.ConnOpen(first)
	costs := &s.cfg.Server
	var forward core.Micros
	if s.multiFE {
		if owner := int(c.ec.State().OwnerFE); owner >= 0 && owner != c.fe {
			// Sharded state: the connection's state transaction ran on
			// the owning front-end. Charge one request's worth of
			// forwarding work here and the same on the owner's CPU (the
			// RPC service time), fire-and-forget.
			forward = costs.FEPerRequest
			s.feCallRemote(owner, costs.FEPerRequest)
		}
	}
	if s.cfg.Combo.Mechanism == core.RelayFrontEnd {
		// The front-end terminates the client connection itself and
		// reuses persistent back-end connections; back-ends see no
		// per-connection work.
		s.feCall(c.fe, costs.FEConn+forward, connStep, c, cpOpenFE)
		return
	}
	s.feCall(c.fe, costs.FEConn+costs.HandoffFE+forward, connStep, c, cpOpenFE)
}

// step advances the connection lifecycle after the event (phase, node).
//
//phttp:hotpath
func (c *connRun) step(phase int, n core.NodeID) {
	s := c.sim
	costs := &s.cfg.Server
	switch phase {
	case cpOpenFE:
		s.fes[c.fe].Release()
		if s.cfg.Combo.Mechanism == core.RelayFrontEnd {
			c.serveBatch()
			return
		}
		s.cpuCall(c.ec.Handling(), costs.HandoffBE+costs.ConnSetup, connStep, c, cpOpenBE)
	case cpOpenBE:
		s.nodes[n].cpu.Release()
		if s.nodeLost(n) {
			c.reopen(n)
			return
		}
		c.serveBatch()
	case cpCloseFE:
		s.fes[c.fe].Release()
		s.connDone(c)
	case cpCloseBE:
		s.nodes[n].cpu.Release()
		s.connDone(c)
	default:
		panicUnknownPhase("connection", phase)
	}
}

// reopen retries a connection open whose handling node crashed during
// setup: the connection moves to the least-loaded up node and repeats
// the back-end setup work there. Past the retry budget — or with no
// node up — the client sees the connection closed; every request it
// would have carried counts failed.
func (c *connRun) reopen(dead core.NodeID) {
	s := c.sim
	c.tries++
	t := c.disp.Redispatch(c.ec, dead, c.tries, s.cfg.RetryBudget)
	if t == core.NoNode {
		for _, b := range c.conn.Batches[c.batchIdx:] {
			s.failed += int64(len(b))
		}
		s.connDone(c)
		return
	}
	s.redispatches++
	costs := &s.cfg.Server
	s.cpuCall(t, costs.HandoffBE+costs.ConnSetup, connStep, c, cpOpenBE)
}

// serveBatch assigns and serves the current batch; when all its responses
// are done the next batch arrives (the closed-loop client sends it
// immediately). The assignment slice is the policy's reusable buffer,
// consumed within the loop.
func (c *connRun) serveBatch() {
	s := c.sim
	batch := c.conn.Batches[c.batchIdx]
	assignments := c.disp.AssignBatch(c.ec, batch)
	c.outstanding = len(batch)
	c.batchStart = s.eng.Now()
	for i, r := range batch {
		c.serveRequest(r, assignments[i])
	}
}

// serveRequest schedules the first event of one request's mechanism-specific
// data path.
func (c *connRun) serveRequest(r core.Request, a core.Assignment) {
	s := c.sim
	costs := &s.cfg.Server
	rr := s.getReq(c, r, a)
	switch {
	case s.cfg.Combo.Mechanism == core.RelayFrontEnd:
		// Request relayed by FE, served at a.Node, response relayed by
		// FE to the client.
		s.feCall(c.fe, costs.FEPerRequest, reqStep, rr, rqFE)

	case a.Forward:
		// BE forwarding: FE forwards the tagged request to the handling
		// node; the remote node produces the content; the handling node
		// receives and retransmits it.
		rr.aux = c.ec.Handling()
		s.feCall(c.fe, costs.FEPerRequest, reqStep, rr, rqFE)

	case a.Migrate && s.cfg.Combo.Mechanism == core.MultipleHandoff:
		// Migration: FE coordinates, both back-ends do handoff work,
		// then the new handling node serves the request.
		s.feCall(c.fe, costs.HandoffFE, reqStep, rr, rqMigFE)

	default:
		// Local serve at the assigned node (covers single handoff,
		// zero-cost reassignment, and non-migrating requests).
		s.feCall(c.fe, costs.FEPerRequest, reqStep, rr, rqFE)
	}
}

// reqRun is one in-flight request's state: the mechanism path is encoded in
// the assignment and the phase codes, aux carries the handling node on the
// forwarding path.
type reqRun struct {
	cr   *connRun
	id   core.TargetID
	size int64
	a    core.Assignment
	aux  core.NodeID
	// tries counts crash re-dispatch attempts (reset with the record in
	// getReq).
	tries int
}

// step advances the request's data path after the event (phase, node).
//
//phttp:hotpath
func (rr *reqRun) step(phase int, n core.NodeID) {
	c := rr.cr
	s := c.sim
	costs := &s.cfg.Server
	switch phase {
	case rqFE:
		s.fes[c.fe].Release()
		if rr.a.Forward {
			remote := rr.a.Node
			s.cpuCall(remote, costs.PerRequest+costs.ForwardPerRequest, reqStep, rr, rqRemoteCPU)
			return
		}
		rr.startLocal(rr.a.Node)

	case rqLocalCPU:
		// Normal serve path at node n: cache lookup, disk on a miss, then
		// transmit to the client. Local disk reads always populate the
		// node's cache — FreeBSD's unified buffer cache offers no bypass —
		// whatever the policy's mapping chose to record.
		s.nodes[n].cpu.Release()
		if s.nodeLost(n) {
			rr.redispatch(n)
			return
		}
		if s.nodes[n].cache.Lookup(rr.id) {
			s.cpuCall(n, costs.Transmit(rr.size), reqStep, rr, rqLocalXmit)
			return
		}
		s.diskCall(n, rr.size, reqStep, rr, rqLocalDisk)

	case rqLocalDisk:
		nd := s.nodes[n]
		nd.disk.Release()
		s.reportDiskQueue(n, nd.disk.Queued())
		if s.nodeLost(n) {
			// The read never reached the client and the node's cache
			// restarts cold: no insert.
			rr.redispatch(n)
			return
		}
		nd.cache.Insert(rr.id, rr.size)
		s.cpuCall(n, costs.Transmit(rr.size), reqStep, rr, rqLocalXmit)

	case rqLocalXmit:
		s.nodes[n].cpu.Release()
		if s.nodeLost(n) {
			rr.redispatch(n)
			return
		}
		if s.cfg.Combo.Mechanism == core.RelayFrontEnd {
			s.feCall(c.fe, costs.Relay(rr.size), reqStep, rr, rqRelayOut)
			return
		}
		rr.done()

	case rqRelayOut:
		s.fes[c.fe].Release()
		rr.done()

	case rqRemoteCPU:
		// The remote side of a lateral fetch produces the content (cache
		// hit or disk read, inserting on a miss).
		s.nodes[n].cpu.Release()
		if s.nodeLost(n) {
			rr.redispatch(n)
			return
		}
		if s.nodes[n].cache.Lookup(rr.id) {
			rr.contentReady()
			return
		}
		s.diskCall(n, rr.size, reqStep, rr, rqRemoteDisk)

	case rqRemoteDisk:
		nd := s.nodes[n]
		nd.disk.Release()
		s.reportDiskQueue(n, nd.disk.Queued())
		if s.nodeLost(n) {
			rr.redispatch(n)
			return
		}
		nd.cache.Insert(rr.id, rr.size)
		rr.contentReady()

	case rqFwdXmit:
		s.nodes[n].cpu.Release()
		if s.nodeLost(n) {
			rr.redispatch(n)
			return
		}
		rr.done()

	case rqMigFE:
		s.fes[c.fe].Release()
		oldNode, newNode := rr.a.From, rr.a.Node
		s.cpuCall(oldNode, costs.HandoffBE, releaseCPU, s, 0) // old node releases state
		s.cpuCall(newNode, costs.HandoffBE, reqStep, rr, rqMigNewCPU)

	case rqMigNewCPU:
		s.nodes[n].cpu.Release()
		if s.nodeLost(n) {
			rr.redispatch(n)
			return
		}
		rr.startLocal(n)

	default:
		panicUnknownPhase("request", phase)
	}
}

// startLocal begins the normal serve path at node n (per-request CPU, then
// cache/disk/transmit via rqLocalCPU).
func (rr *reqRun) startLocal(n core.NodeID) {
	s := rr.cr.sim
	s.cpuCall(n, s.cfg.Server.PerRequest, reqStep, rr, rqLocalCPU)
}

// contentReady continues the forwarding path once the remote node has the
// content: the handling node receives and retransmits it.
func (rr *reqRun) contentReady() {
	s := rr.cr.sim
	costs := &s.cfg.Server
	s.cpuCall(rr.aux, costs.ForwardPerRequest+costs.ForwardRecv(rr.size)+costs.Transmit(rr.size), reqStep, rr, rqFwdXmit)
}

// redispatch re-sends a request whose serving node crashed: the engine
// picks the least-loaded up node and the front-end re-issues the request
// there as a plain local serve (forward/migrate sub-paths are not
// retried — the re-dispatch is the recovery path, not a policy
// decision). If the connection's handling node is the dead one, the
// connection moves with the request. Past the retry budget — or with no
// node up — the request fails and its connection closes after the
// in-flight batch drains.
func (rr *reqRun) redispatch(dead core.NodeID) {
	s := rr.cr.sim
	rr.tries++
	t := rr.cr.disp.Redispatch(rr.cr.ec, dead, rr.tries, s.cfg.RetryBudget)
	if t == core.NoNode {
		rr.fail()
		return
	}
	s.redispatches++
	rr.a = core.Assignment{Node: t}
	s.feCall(rr.cr.fe, s.cfg.Server.FEPerRequest, reqStep, rr, rqFE)
}

// done accounts one finished response, recycles the request record, and
// advances the connection.
func (rr *reqRun) done() { rr.finish(false) }

// fail abandons a request whose retry budget ran out and marks the
// connection for closure — the connection-close fallback.
func (rr *reqRun) fail() {
	rr.cr.sim.failed++
	rr.cr.aborted = true
	rr.finish(true)
}

func (rr *reqRun) finish(failed bool) {
	c := rr.cr
	s := c.sim
	if !failed {
		s.served++
		s.servedBytes += rr.size
		delay := s.eng.Now() - c.batchStart
		s.delaySum += delay
		// Redispatched requests land here too once they finally complete,
		// with the retries' full delay — the tail keeps the truth.
		s.hist.Record(int64(delay))
	}
	s.putReq(rr)
	c.outstanding--
	if c.outstanding > 0 {
		return
	}
	c.batchIdx++
	if c.aborted {
		// Connection-close fallback: batches the client never got to send
		// count as failed alongside the request that exhausted its budget.
		for _, b := range c.conn.Batches[c.batchIdx:] {
			s.failed += int64(len(b))
		}
	} else if c.batchIdx < len(c.conn.Batches) {
		c.serveBatch()
		return
	}
	// Connection complete: teardown at the handling node (none for the
	// relaying front-end, which pays it on its own CPU).
	costs := &s.cfg.Server
	if s.cfg.Combo.Mechanism == core.RelayFrontEnd {
		s.feCall(c.fe, costs.FEConn, connStep, c, cpCloseFE)
		return
	}
	s.cpuCall(c.ec.Handling(), costs.ConnTeardown, connStep, c, cpCloseBE)
}

// result assembles the measured Result after the event queue drains.
func (s *Sim) result() Result {
	elapsed := s.eng.Now() - s.warmTime
	served := s.served - s.warmServed
	res := Result{
		Combo:    s.cfg.Combo.Name,
		Server:   s.cfg.Server.Kind.String(),
		Nodes:    s.cfg.Nodes,
		Requests: served,
		SimTime:  elapsed,
	}
	// The config validated its policy name before the run started.
	res.Policy, _ = s.cfg.PolicyName()
	if elapsed > 0 {
		res.Throughput = float64(served) / elapsed.Seconds()
		res.BandwidthMbps = float64(s.servedBytes-s.warmBytes) * 8 / 1e6 / elapsed.Seconds()
		// Per-front-end utilization: total busy time over the tier's
		// aggregate capacity (elapsed × members). One member divides by
		// elapsed×1 — the same value as the pre-tier expression.
		res.FEUtilization = float64(s.feBusy()-s.warmFEBusy) / (float64(elapsed) * float64(len(s.fes)))
	}
	if served > 0 {
		res.MeanDelay = (s.delaySum - s.warmDelaySum) / core.Micros(served)
	}
	delta := s.hist
	if s.warmHist != nil {
		delta = s.hist.Snapshot()
		delta.Sub(s.warmHist)
	}
	res.Latency = Summarize(delta, s.cfg.SLOTarget)
	var hits, misses int64
	for i, n := range s.nodes {
		hits += n.cache.Hits()
		misses += n.cache.Misses()
		if elapsed > 0 {
			res.CPUUtil += float64(n.cpu.BusyTotal()-s.warmCPUBusy[i]) / float64(elapsed)
			res.DiskUtil += float64(n.disk.BusyTotal()-s.warmDiskBusy[i]) / float64(elapsed)
		}
	}
	res.CPUUtil /= float64(len(s.nodes))
	res.DiskUtil /= float64(len(s.nodes))
	if hits+misses > 0 {
		res.HitRate = float64(hits) / float64(hits+misses)
	}
	for _, eng := range s.engs {
		if ext, ok := eng.Policy().(*policy.ExtLARD); ok {
			l, r, m, b := ext.Stats()
			res.LocalServes += l
			res.RemoteServes += r
			res.Migrations += m
			res.CacheBypasses += b
		}
	}
	res.Redispatches = s.redispatches
	res.FailedRequests = s.failed
	return res
}
