package dispatch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"phttp/internal/core"
	"phttp/internal/dstate"
)

// Engine is the concurrency-safe dispatch engine: it owns the policy
// instance, allocates connection IDs, tracks live connection state, and
// exposes the dispatch lifecycle to parallel callers.
//
// Concurrency contract: calls for *different* connections may run fully in
// parallel — the underlying policy state (atomic load tracker, hash-sharded
// mapping) needs no engine-level lock. Calls for a *single* connection
// (ConnOpen → AssignBatch* → BatchDone? → ConnClose) must be issued in
// order by one caller at a time, which both drivers do naturally: the
// prototype front-end runs one goroutine per client connection, and the
// simulator is single-threaded.
//
// Requests reaching the engine must be interned (Request.ID set): the
// simulator's trace loader interns at build time and the prototype's HTTP
// parser interns at parse time (httpmsg.ReadRequestInterned), so no
// per-request target hashing survives on any hot path. ConnOpen checks the
// first request and panics on a missing ID — the one cheap guard that
// catches a mis-wired driver before the policies corrupt their tables —
// unless the interner is capped, where NoTarget marks a target past the
// cap (placed by load; the mapping ignores it).
type Engine struct {
	spec Spec
	name string // canonical policy name
	// store is the dispatch-state tier view every lifecycle call routes
	// through: local (one policy owning all state — the single-front-end
	// default whose decisions are bit-identical to the pre-tier engine),
	// sharded, or replicated. pol is the store's local policy replica —
	// the object membership transitions and metrics talk to.
	store    dstate.Store
	pol      core.Policy
	interner *core.Interner

	nextID atomic.Int64
	live   atomic.Int64

	conns  atomic.Int64 // connections opened, cumulative
	reqs   atomic.Int64 // requests assigned, cumulative
	closes atomic.Int64 // connections closed, cumulative

	// connPool recycles Conn records across the run: the record and its
	// embedded buffers (assignment, scratch, remote-load) survive from one
	// client connection to the next, so a warmed engine opens and closes
	// connections without allocating. One brief lock per open/close is
	// noise next to the dispatch work between them.
	poolMu   sync.Mutex
	connPool []*Conn

	// membership is the policy's optional membership-transition hook,
	// resolved once (nil when the policy ignores churn). nodePhases and
	// upNodes are the engine's own view, kept even for such policies so
	// HasUp and Redispatch still gate admission and re-dispatch.
	membership core.MembershipPolicy
	nodePhases []atomic.Int32
	upNodes    atomic.Int32
}

// Conn is the engine's handle for one live client connection. The
// connection state is embedded by value: one allocation covers the handle,
// the bookkeeping and (after warmup) the policy buffers, and the pool above
// makes even that allocation a one-time cost.
type Conn struct {
	cs     core.ConnState
	closed atomic.Bool
}

// ID returns the connection's engine-assigned identifier.
func (c *Conn) ID() core.ConnID { return c.cs.ID }

// Handling returns the connection-handling node (NoNode after close).
func (c *Conn) Handling() core.NodeID { return c.cs.Handling }

// State exposes the underlying connection state for metrics and tests.
func (c *Conn) State() *core.ConnState { return &c.cs }

// NewEngine builds the policy named by spec and returns an engine
// dispatching through it. When the spec carries a target cap (MaxTargets)
// and no interner, a capped interner is created.
func NewEngine(spec Spec) (*Engine, error) {
	pol, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return NewEngineWithStore(spec, dstate.NewLocal(pol))
}

// NewEngineWithStore builds an engine dispatching through an externally
// constructed dispatch-state store: a scale-out tier's dstate.Member.
// The engine's membership transitions and metrics bind to store.Policy() —
// the front-end's own replica/shard; cross-front-end routing is the
// store's business.
func NewEngineWithStore(spec Spec, store dstate.Store) (*Engine, error) {
	name, err := Canonical(spec.Policy)
	if err != nil {
		return nil, err
	}
	pol := store.Policy()
	in := spec.Interner
	if in == nil {
		if spec.MaxTargets > 0 {
			in = core.NewCappedInterner(spec.MaxTargets)
		} else {
			in = core.NewInterner()
		}
	}
	e := &Engine{spec: spec, name: name, store: store, pol: pol, interner: in}
	e.nextID.Store(spec.ConnIDBase)
	e.membership, _ = pol.(core.MembershipPolicy)
	e.initMembership(spec.Nodes)
	return e, nil
}

// Interner exposes the engine's target interner (shared with the driver
// when the Spec supplied one).
func (e *Engine) Interner() *core.Interner { return e.interner }

// Policy exposes the engine's policy (metrics, tests).
func (e *Engine) Policy() core.Policy { return e.pol }

// Store exposes the engine's dispatch-state store (a dstate.Local unless
// the engine was built for a scale-out tier).
func (e *Engine) Store() dstate.Store { return e.store }

// NewTierEngines builds one engine per member of an in-process
// dispatch-state tier of the given size: a policy from the spec for each,
// behind a dstate.Member wired directly to the others. The simulator's
// scale-out model runs on the result and syncs through the returned
// members. All engines share the spec's interner (the caller supplies one —
// the simulator's workload interner — or each engine would intern apart).
func NewTierEngines(spec Spec, mode dstate.Mode, frontends int) ([]*Engine, []*dstate.Member, error) {
	peers := make([]dstate.Peer, frontends)
	members := make([]*dstate.Member, frontends)
	engines := make([]*Engine, frontends)
	for i := range engines {
		pol, err := Build(spec)
		if err != nil {
			return nil, nil, err
		}
		if members[i], err = dstate.NewMember(mode, i, pol, peers); err != nil {
			return nil, nil, err
		}
		peers[i] = members[i]
		if engines[i], err = NewEngineWithStore(spec, members[i]); err != nil {
			return nil, nil, err
		}
	}
	return engines, members, nil
}

// PolicyName returns the canonical name of the engine's policy
// ("wrr", "lard", "lardr" or "extlard").
func (e *Engine) PolicyName() string { return e.name }

// Nodes returns the number of back-end nodes dispatched over.
func (e *Engine) Nodes() int { return e.spec.Nodes }

// Connections returns the cumulative number of connections opened.
func (e *Engine) Connections() int64 { return e.conns.Load() }

// Requests returns the cumulative number of requests assigned.
func (e *Engine) Requests() int64 { return e.reqs.Load() }

// Closes returns the cumulative number of connections closed.
func (e *Engine) Closes() int64 { return e.closes.Load() }

// Active returns the number of currently open connections.
func (e *Engine) Active() int64 { return e.live.Load() }

// getConn pops a recycled connection record or allocates the run's next one.
//
//phttp:hotpath
func (e *Engine) getConn() *Conn {
	e.poolMu.Lock()
	if n := len(e.connPool); n > 0 {
		c := e.connPool[n-1]
		e.connPool = e.connPool[:n-1]
		e.poolMu.Unlock()
		return c
	}
	e.poolMu.Unlock()
	return &Conn{}
}

// putConn returns a closed connection record to the pool.
//
//phttp:hotpath
func (e *Engine) putConn(c *Conn) {
	e.poolMu.Lock()
	e.connPool = append(e.connPool, c)
	e.poolMu.Unlock()
}

// ConnOpen admits a new client connection: it recycles (or allocates) the
// connection state, asks the policy for the handling node based on the
// first request, and begins tracking the connection. The first request must
// be interned; only a capped interner may have answered NoTarget, for a
// target past its cap.
//
//phttp:hotpath
func (e *Engine) ConnOpen(first core.Request) (*Conn, core.NodeID) {
	if first.ID == core.NoTarget && e.interner.Cap() == 0 {
		panicUninterned(first.Target)
	}
	c := e.getConn()
	c.cs.Reset(core.ConnID(e.nextID.Add(1)))
	c.closed.Store(false)
	handling := e.store.ConnOpen(&c.cs, first)
	e.live.Add(1)
	e.conns.Add(1)
	return c, handling
}

// panicUninterned is the cold formatting helper for ConnOpen's invariant
// panic, kept out of the annotated hot path so fmt stays off it.
func panicUninterned(target core.Target) {
	panic(fmt.Sprintf("dispatch: ConnOpen with un-interned request %q; intern at the edge (trace loader / HTTP parser)", target))
}

// AssignBatch assigns every request of a pipelined batch arriving on c and
// performs the paper's 1/N load accounting. It returns one Assignment per
// request, in order; the slice may be backed by the connection's reusable
// buffer and is valid until the next AssignBatch on c. Every request must
// be interned — batches pass through untouched, so the simulator's shared
// trace is never written to and parallel sweep workers can replay one trace
// concurrently.
//
//phttp:hotpath
func (e *Engine) AssignBatch(c *Conn, batch core.Batch) []core.Assignment {
	as := e.store.AssignBatch(&c.cs, batch)
	e.reqs.Add(int64(len(batch)))
	return as
}

// BatchDone tells the policy the connection went idle after its current
// batch, releasing fractional remote loads early.
//
//phttp:hotpath
func (e *Engine) BatchDone(c *Conn) { e.store.BatchDone(&c.cs) }

// ConnClose releases all load held by c and recycles the record. An
// immediate duplicate close is absorbed through the closed flag, but
// pooling makes the handle single-shot: after the close that the
// connection's owner issues, the record may be reissued to a new
// connection, and a stale close on the old handle would then close the
// new connection's state — the same use-after-Put contract as sync.Pool.
// Both drivers satisfy it structurally (the sim closes in connDone, the
// front-end in its one deferred closeClient); a future driver with
// teardown races must funnel closes through one owner per connection,
// which the engine's per-connection serialization contract already
// requires.
//
//phttp:hotpath
func (e *Engine) ConnClose(c *Conn) {
	if c == nil || !c.closed.CompareAndSwap(false, true) {
		return
	}
	e.store.ConnClose(&c.cs)
	e.live.Add(-1)
	e.putConn(c)
	e.closes.Add(1)
}

// ReportDiskQueue delivers a back-end's disk queue length to the policy
// (the prototype's control-session feedback).
func (e *Engine) ReportDiskQueue(n core.NodeID, queued int) {
	e.store.ReportDiskQueue(n, queued)
}
