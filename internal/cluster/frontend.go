package cluster

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/httpmsg"
	"phttp/internal/membership"
	"phttp/internal/metrics"
	"phttp/internal/policy"
)

// FrontEndConfig parameterizes the front-end node.
type FrontEndConfig struct {
	// Nodes is the number of back-ends.
	Nodes int
	// Policy is a dispatch registry name ("wrr", "lard", "lardr",
	// "extlard", "p2c", "boundedch", or any policy added via
	// dispatch.Register).
	Policy string
	// PolicyOptions are generic policy construction options forwarded to
	// the dispatch registry (validated against the policy's schema); they
	// override the typed fields below per key. Scenario-driven front-ends
	// are configured through them.
	PolicyOptions dispatch.Options
	// Mechanism is the distribution mechanism. The prototype implements
	// SingleHandoff, BEForwarding (the paper's choice) and RelayFrontEnd;
	// multiple handoff exists only in the simulator, as in the paper.
	Mechanism core.Mechanism
	// Params are the LARD-family constants.
	Params policy.Params
	// CacheBytes sizes the mapping model per node.
	CacheBytes int64
	// MaxTargets, when positive, caps the dispatcher's target interner,
	// so a front-end facing an unbounded URL space (query strings,
	// crawlers) holds a bounded table: a target first seen once the table
	// is full gets no ID, is dispatched by load alone, writes no mapping
	// entry, and is served by name like any other. Zero means no cap,
	// which is right for benchmark runs and trace replay.
	MaxTargets int
	// IdleTimeout closes persistent connections with no request activity
	// (the paper's configurable interval, typically 15 s).
	IdleTimeout time.Duration
	// BatchWindow is how long the forwarding module waits for further
	// pipelined requests after one arrives before treating the batch as
	// complete. A window below timerResolution is not waited out: the
	// batch is then what has arrived when its last complete request is
	// parsed.
	BatchWindow time.Duration
	// ClientListen is the client-facing listen address; empty means an
	// ephemeral loopback port.
	ClientListen string

	// DialRetries and DialBackoff bound the connection attempts per
	// back-end at start (and in AddBackend): after 1+DialRetries failed
	// attempts the node starts Down instead of aborting the front-end —
	// start fails only when zero back-ends are reachable. Zero values
	// take DefaultDialRetries / DefaultDialBackoff.
	DialRetries int
	DialBackoff time.Duration
	// HeartbeatTimeout and ConfirmWindow parameterize failure detection
	// (membership.Config): a back-end silent past HeartbeatTimeout — its
	// periodic DISKQ reports double as heartbeats — turns Suspect, and a
	// Suspect node unheard for ConfirmWindow is confirmed Down. Zero
	// keeps the membership package defaults.
	HeartbeatTimeout time.Duration
	ConfirmWindow    time.Duration
	// HealthInterval is the failure detector's evaluation cadence
	// (membership.Table.Tick); zero takes DefaultHealthInterval.
	HealthInterval time.Duration
	// RetryBudget caps re-dispatch attempts per relayed request after its
	// serving node is confirmed Down; past it the client connection is
	// closed (the connection-close fallback). Zero takes
	// DefaultRetryBudget; negative means no retries.
	RetryBudget int

	// Frontends is the size of the scale-out front-end tier this node
	// belongs to; 0 or 1 means the paper's single front-end (and every
	// field below is ignored). With a plural tier, each front-end runs
	// its own dispatch engine over a networked dstate store and the
	// members exchange dispatch state peer-to-peer (see peers.go).
	Frontends int
	// FEID is this front-end's index in [0, Frontends). Members of one
	// tier must use distinct IDs: the ID names this node in the peer
	// protocol and salts its connection-ID space so wire IDs from
	// different front-ends never collide at a shared back-end.
	FEID int
	// State selects the tier's dispatch-state backend: sharded
	// (dstate.ModeSharded) or replicated (dstate.ModeReplicated).
	// A plural tier must choose one; local is single-front-end only.
	State dstate.Mode
	// PeerListen is the peer-protocol listen address; empty means an
	// ephemeral loopback port (read it back with PeerAddr).
	PeerListen string
	// SyncInterval is the replicated store's sync period — the tier's
	// staleness bound: a mapping write on one front-end is visible on
	// every peer within one interval plus delivery. Zero takes
	// DefaultSyncInterval; ignored by the sharded store (forwarding is
	// synchronous, there is no staleness to bound).
	SyncInterval time.Duration
	// StateSeed salts the shard-ownership ring; every member of one tier
	// must agree (zero takes DefaultStateSeed).
	StateSeed uint64
}

// Default knobs for the elastic-membership machinery.
const (
	DefaultDialRetries    = 3
	DefaultDialBackoff    = 50 * time.Millisecond
	DefaultHealthInterval = 100 * time.Millisecond
	DefaultRetryBudget    = 2
)

// BackendEndpoints tells the front-end how to reach one back-end: the TCP
// control address, which a relaying front-end dials, and the UNIX socket
// path, which the other mechanisms dial. Peer addresses are the back-ends'
// business (SetPeers), not the front-end's.
type BackendEndpoints struct {
	Ctrl    string
	Handoff string
}

// beLink is the front-end's connection bundle to one back-end.
type beLink struct {
	id core.NodeID

	// ctrl is the control session: the back-end's UNIX socket, which also
	// carries the handed-off descriptors, or when relaying a TCP stream.
	ctrlMu sync.Mutex // guards the conns and serializes writes to ctrl
	ctrl   net.Conn
	data   net.Conn // relay data connection (reads only at FE)
}

// close tears the link's sessions down; their read loops drain and exit on
// their own conns.
func (l *beLink) close() {
	l.ctrlMu.Lock()
	defer l.ctrlMu.Unlock()
	for _, c := range []net.Conn{l.ctrl, l.data} {
		if c != nil {
			c.Close()
		}
	}
	l.ctrl, l.data = nil, nil
}

// FrontEnd is the running front-end node: client listener, dispatch engine,
// forwarding module, and per-back-end control sessions. Dispatch runs
// concurrently per client connection — the engine's policy state is safe
// for parallel callers, so there is no front-end-wide policy lock.
type FrontEnd struct {
	cfg       FrontEndConfig
	ln        net.Listener
	links     []*beLink
	endpoints []BackendEndpoints

	eng *dispatch.Engine
	mem *membership.Table
	// tier is the networked dispatch-state tier view (nil for the
	// single-front-end configuration).
	tier *peerTier

	// sweepCh hands nodes just confirmed Down from the membership
	// listener (which runs under the table lock) to healthLoop, which
	// re-dispatches their in-flight relayed requests.
	sweepCh chan core.NodeID

	// pending tracks relayed requests awaiting their response frame, by
	// (connection, sequence) — the unit of re-dispatch when a node dies.
	pendingMu sync.Mutex
	pending   map[core.ConnID]map[int]*pendingReq

	// unavailable counts connections refused with 503 (no Up back-end);
	// redispatched counts in-flight requests re-sent after a node death.
	unavailable  metrics.Counter
	redispatched metrics.Counter

	// lat is the wall-clock per-request latency histogram behind the
	// /status endpoint, in microseconds from batch completion at the
	// front-end. Relay records end-to-end at response delivery (a
	// re-dispatched request keeps its original start, so the retry delay
	// is in the sample, not dropped); handoff and BE forwarding record at
	// request forward — the front-end never sees those responses — and a
	// 503 refusal records the refusal itself rather than vanishing from
	// the distribution.
	lat *core.LatencyHist

	// relayConns routes relay frames back to client connections.
	relayMu    sync.Mutex
	relayConns map[core.ConnID]*relayConn

	// busyNanos accumulates dispatcher + forwarding-module processing
	// time for the Section 8.2 front-end utilization figure.
	busyNanos atomic.Int64
	started   time.Time

	conns atomic.Int64

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// relayConn is the reordering buffer for one relayed client connection.
type relayConn struct {
	client net.Conn // the client socket, for closing from outside; never changes

	mu      sync.Mutex
	out     net.Conn // client until a write to it fails, then nil
	nextSeq int
	pending map[int][]byte
	// endAt is the nextSeq at which the response stream ends: one past the
	// request that ended the connection (0 while none has).
	endAt int
}

// NewFrontEnd starts the front-end: it listens for clients on loopback and
// connects a control session (and, for relay, a data session) to every
// back-end endpoint. Endpoints may belong to in-process Backends or
// to separate phttp-backend processes on the same machine (the handoff
// mechanism requires a shared kernel; see DESIGN.md §4.2).
func NewFrontEnd(cfg FrontEndConfig, backends []BackendEndpoints) (*FrontEnd, error) {
	if err := validateFEConfig(cfg, len(backends)); err != nil {
		return nil, err
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 15 * time.Second
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = 2 * time.Millisecond
	}
	spec := dispatch.Spec{
		Policy:     cfg.Policy,
		Nodes:      cfg.Nodes,
		Options:    cfg.PolicyOptions,
		CacheBytes: cfg.CacheBytes,
		Params:     cfg.Params,
		Mechanism:  cfg.Mechanism,
		MaxTargets: cfg.MaxTargets,
	}
	var eng *dispatch.Engine
	var tier *peerTier
	var err error
	if cfg.Frontends > 1 {
		// Scale-out tier member: its connection-ID space is salted by its
		// front-end index (40 bits leave room for a trillion connections
		// per member), its policy replica/shard sits behind a networked
		// dstate store, and the engine dispatches through that store.
		spec.ConnIDBase = int64(cfg.FEID) << 40
		pol, berr := dispatch.Build(spec)
		if berr != nil {
			return nil, berr
		}
		if tier, err = newPeerTier(cfg, pol); err != nil {
			return nil, err
		}
		if eng, err = dispatch.NewEngineWithStore(spec, tier); err != nil {
			tier.Close()
			return nil, err
		}
		tier.finishInit(eng.Interner())
	} else if eng, err = dispatch.NewEngine(spec); err != nil {
		return nil, err
	}
	fe := &FrontEnd{
		cfg:        cfg,
		tier:       tier,
		eng:        eng,
		endpoints:  append([]BackendEndpoints(nil), backends...),
		relayConns: make(map[core.ConnID]*relayConn),
		pending:    make(map[core.ConnID]map[int]*pendingReq),
		sweepCh:    make(chan core.NodeID, 4*cfg.Nodes),
		lat:        core.NewLatencyHist(),
		started:    time.Now(),
		closed:     make(chan struct{}),
	}
	fe.mem = membership.New(cfg.Nodes, membership.Config{
		HeartbeatTimeout: cfg.HeartbeatTimeout,
		ConfirmWindow:    cfg.ConfirmWindow,
	}, time.Now())
	fe.mem.OnChange(fe.onMembership)
	listen := cfg.ClientListen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	if fe.ln, err = net.Listen("tcp", listen); err != nil {
		return nil, fmt.Errorf("cluster: frontend listen: %w", err)
	}
	// One refused back-end must not abort the whole front-end: each slot
	// gets bounded retries with backoff, an unreachable (or vacant:
	// empty Ctrl) slot starts Down, and start fails only when zero
	// back-ends are reachable.
	reachable := 0
	var lastErr error
	for i, ep := range backends {
		id := core.NodeID(i)
		link, err := fe.dialRetry(id, ep)
		if err != nil {
			lastErr = err
			link = &beLink{id: id}
			fe.mem.MarkDown(id)
		} else {
			reachable++
			fe.mem.MarkUp(id, time.Now())
		}
		fe.links = append(fe.links, link)
	}
	if reachable == 0 {
		fe.Close()
		return nil, fmt.Errorf("cluster: no reachable back-end among %d: %w", len(backends), lastErr)
	}
	fe.wg.Add(1)
	go fe.acceptLoop()
	fe.wg.Add(1)
	go fe.healthLoop()
	return fe, nil
}

func validateFEConfig(cfg FrontEndConfig, backends int) error {
	if cfg.Nodes != backends {
		return fmt.Errorf("cluster: config says %d nodes but %d back-ends supplied", cfg.Nodes, backends)
	}
	switch cfg.Mechanism {
	case core.SingleHandoff, core.BEForwarding, core.RelayFrontEnd:
	default:
		return fmt.Errorf("cluster: prototype does not implement mechanism %v (simulator only)", cfg.Mechanism)
	}
	// Policy names are validated by the dispatch registry when the engine
	// is built; no second list of valid names lives here.
	if cfg.Frontends > 1 {
		if cfg.FEID < 0 || cfg.FEID >= cfg.Frontends {
			return fmt.Errorf("cluster: front-end id %d outside tier [0,%d)", cfg.FEID, cfg.Frontends)
		}
		switch cfg.State {
		case dstate.ModeSharded:
			// The sharded prototype forwards only connection-open
			// transactions to shard owners; a per-request mechanism would
			// need per-request forwarding, which the prototype does not
			// implement (DESIGN.md §17).
			if cfg.Mechanism != core.SingleHandoff {
				return fmt.Errorf("cluster: sharded dispatch state requires the single-handoff mechanism (got %v)", cfg.Mechanism)
			}
		case dstate.ModeReplicated:
		default:
			return fmt.Errorf("cluster: a %d-front-end tier needs state=sharded or state=replicated (got %v)", cfg.Frontends, cfg.State)
		}
	} else if cfg.State != dstate.ModeLocal {
		return fmt.Errorf("cluster: state=%v needs frontends > 1 (a single front-end is always local)", cfg.State)
	}
	return nil
}

// dialRetry dials one back-end with bounded retries and linear backoff.
// A vacant slot (no endpoint for the mechanism) fails immediately: it is
// provisioned capacity awaiting AddBackend, not a dial target.
func (fe *FrontEnd) dialRetry(id core.NodeID, ep BackendEndpoints) (*beLink, error) {
	if fe.relaying() && ep.Ctrl == "" || !fe.relaying() && ep.Handoff == "" {
		return nil, fmt.Errorf("cluster: backend slot %v is vacant (no control endpoint)", id)
	}
	retries := fe.cfg.DialRetries
	if retries == 0 {
		retries = DefaultDialRetries
	} else if retries < 0 {
		retries = 0
	}
	backoff := fe.cfg.DialBackoff
	if backoff <= 0 {
		backoff = DefaultDialBackoff
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * backoff)
		}
		link, err := fe.dial(id, ep)
		if err == nil {
			return link, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// relaying reports whether the front-end relays responses, the one
// mechanism whose sessions are TCP.
func (fe *FrontEnd) relaying() bool { return fe.cfg.Mechanism == core.RelayFrontEnd }

// dial establishes the control session to one back-end — its UNIX socket,
// or when relaying a TCP session (HELLO CTRL) and the relay data session
// (HELLO DATA) — and starts their read loops.
func (fe *FrontEnd) dial(id core.NodeID, ep BackendEndpoints) (*beLink, error) {
	link := &beLink{id: id}
	var err error
	if !fe.relaying() {
		link.ctrl, err = net.Dial("unix", ep.Handoff)
	} else if link.ctrl, err = dialHello(ep.Ctrl, "HELLO CTRL\n"); err == nil {
		if link.data, err = dialHello(ep.Ctrl, "HELLO DATA\n"); err != nil {
			link.ctrl.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: dial backend %v: %w", id, err)
	}
	ctrl, data := link.ctrl, link.data
	fe.wg.Add(1)
	go func() { defer fe.wg.Done(); fe.ctrlReadLoop(link, ctrl) }()
	if data != nil {
		fe.wg.Add(1)
		go func() { defer fe.wg.Done(); fe.relayReadLoop(link, data) }()
	}
	return link, nil
}

// dialHello opens a TCP session to addr that announces its role.
func dialHello(addr, hello string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// Addr returns the client-facing listen address.
func (fe *FrontEnd) Addr() string { return fe.ln.Addr().String() }

// PeerAddr returns the peer-protocol listen address of a tier member
// ("" for a single front-end). Tier bring-up collects every member's
// PeerAddr and hands the full slate to each ConnectPeers.
func (fe *FrontEnd) PeerAddr() string {
	if fe.tier == nil {
		return ""
	}
	return fe.tier.Addr()
}

// ConnectPeers links this tier member to its peers: addrs[i] is front-end
// i's PeerAddr (our own slot is ignored). Call it on every member once
// all listeners exist — two-phase bring-up avoids ordering the members.
// Replicated members start their sync loop here. No-op on a single
// front-end.
func (fe *FrontEnd) ConnectPeers(addrs []string) error {
	if fe.tier == nil {
		return nil
	}
	return fe.tier.connect(addrs)
}

// RemoteOpens returns connection opens whose dispatch decision was made
// by a peer shard owner (0 for single front-ends and replicated tiers,
// where every decision is local).
func (fe *FrontEnd) RemoteOpens() int64 {
	if fe.tier == nil {
		return 0
	}
	return fe.tier.remoteOpens.Load()
}

// TierSyncs returns completed replication rounds (0 without a tier).
func (fe *FrontEnd) TierSyncs() int64 {
	if fe.tier == nil {
		return 0
	}
	return fe.tier.Syncs()
}

// TierFallbacks returns state transactions decided locally because the
// owning peer was unreachable (0 without a tier).
func (fe *FrontEnd) TierFallbacks() int64 {
	if fe.tier == nil {
		return 0
	}
	return fe.tier.Fallbacks()
}

// RemoteConnsSeen reports whether the local load view includes any peer
// connection state — i.e. whether at least one replication round carrying
// a non-idle load vector has been applied here.
func (fe *FrontEnd) RemoteConnsSeen() bool {
	loads := fe.eng.Policy().Loads()
	for n := 0; n < fe.cfg.Nodes; n++ {
		if loads.Conns(core.NodeID(n)) > loads.LocalConns(core.NodeID(n)) {
			return true
		}
	}
	return false
}

// Policy exposes the dispatcher's policy (metrics, tests).
func (fe *FrontEnd) Policy() core.Policy { return fe.eng.Policy() }

// Engine exposes the dispatch engine (interner diagnostics, soak tests).
func (fe *FrontEnd) Engine() *dispatch.Engine { return fe.eng }

// PolicyName returns the canonical dispatch-registry name of the running
// policy ("wrr", "lard", "lardr" or "extlard").
func (fe *FrontEnd) PolicyName() string { return fe.eng.PolicyName() }

// Requests returns the number of client requests assigned by the dispatch
// engine (the engine's counter is authoritative; the front-end keeps no
// duplicate).
func (fe *FrontEnd) Requests() int64 { return fe.eng.Requests() }

// Connections returns the number of client connections accepted. This can
// exceed the engine's opened-connection count: a client that connects but
// never sends a request is accepted yet never dispatched.
func (fe *FrontEnd) Connections() int64 { return fe.conns.Load() }

// Utilization returns the dispatcher's busy time as a fraction of wall time
// since start — the prototype analogue of the paper's front-end CPU
// utilization ("about 60% at six back-ends" on 300 MHz hardware). Dispatch
// now runs concurrently per client connection, so busy time sums across
// goroutines and the figure is an aggregate occupancy (clamped at 1), no
// longer the occupancy of one serial resource. On modern hardware the
// absolute number is small; the reproducible claim is its roughly linear
// growth with cluster size, which is what bounds how many back-ends one
// front-end supports.
func (fe *FrontEnd) Utilization() float64 {
	wall := time.Since(fe.started).Nanoseconds()
	if wall <= 0 {
		return 0
	}
	u := float64(fe.busyNanos.Load()) / float64(wall)
	if u > 1 {
		u = 1
	}
	return u
}

// Close shuts the front-end down.
func (fe *FrontEnd) Close() {
	fe.closeMu.Do(func() {
		close(fe.closed)
		if fe.tier != nil {
			fe.tier.Close()
		}
		if fe.ln != nil {
			fe.ln.Close()
		}
		for _, l := range fe.links {
			l.close()
		}
	})
	fe.wg.Wait()
}

// ctrlReadLoop consumes back-end → front-end control traffic: disk queue
// reports, which feed the policy, and the CLOSE by which a back-end says it
// has refused a relayed connection. The conn is passed explicitly —
// AddBackend swaps link conns in place, and a loop must drain exactly the
// conn it was started for. Each DISKQ report doubles as a heartbeat; a
// read error is liveness evidence and marks the node Suspect.
func (fe *FrontEnd) ctrlReadLoop(link *beLink, conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		msg, err := readCtrl(br)
		if err != nil {
			fe.suspect(link.id)
			return
		}
		switch msg.Kind {
		case kindDiskQ:
			fe.mem.Heartbeat(link.id, time.Now())
			done := fe.trackDispatch()
			fe.eng.ReportDiskQueue(link.id, msg.Depth)
			done()
		case kindClose:
			fe.dropRelayed(msg.Conn)
		}
	}
}

// dropRelayed closes the client of a relayed connection a back-end has
// refused (back-ends tell every front-end; the ID is ours or unknown). The
// connection's own goroutine, reading the socket, takes it from there as
// for any closed client: CLOSE to the back-ends, pending requests dropped.
func (fe *FrontEnd) dropRelayed(id core.ConnID) {
	fe.relayMu.Lock()
	rc := fe.relayConns[id]
	fe.relayMu.Unlock()
	if rc != nil {
		rc.client.Close()
	}
}

// relayReadLoop consumes relay frames from one back-end and forwards them
// to the owning client connection in sequence order.
func (fe *FrontEnd) relayReadLoop(link *beLink, data net.Conn) {
	defer fe.suspect(link.id)
	br := bufio.NewReaderSize(data, 64<<10)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) != 4 || fields[0] != "RESP" {
			return
		}
		id, err1 := strconv.ParseInt(fields[1], 10, 64)
		seq, err2 := strconv.Atoi(fields[2])
		length, err3 := strconv.ParseInt(fields[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || length < 0 {
			return
		}
		buf := make([]byte, length)
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		fe.deliverRelay(core.ConnID(id), seq, buf)
	}
}

// deliverRelay writes the frame to the client in order, buffering
// out-of-order responses of a pipelined batch served by different nodes.
func (fe *FrontEnd) deliverRelay(id core.ConnID, seq int, frame []byte) {
	var started time.Time
	fe.pendingMu.Lock()
	if m := fe.pending[id]; m != nil {
		if p := m[seq]; p != nil {
			started = p.start
		}
		delete(m, seq)
		if len(m) == 0 {
			delete(fe.pending, id)
		}
	}
	fe.pendingMu.Unlock()
	if !started.IsZero() {
		// End-to-end relay latency; a re-dispatched request keeps the
		// start of its original batch, so retries lengthen the sample.
		fe.lat.Record(time.Since(started).Microseconds())
	}
	fe.relayMu.Lock()
	rc := fe.relayConns[id]
	fe.relayMu.Unlock()
	if rc == nil {
		return // connection already closed
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.pending == nil {
		rc.pending = make(map[int][]byte)
	}
	rc.pending[seq] = frame
	for {
		next, ok := rc.pending[rc.nextSeq]
		if !ok {
			return
		}
		delete(rc.pending, rc.nextSeq)
		rc.nextSeq++
		if rc.out != nil {
			if _, err := rc.out.Write(next); err != nil {
				rc.out = nil
			} else if rc.nextSeq == rc.endAt {
				// The last response is followed by the end of the
				// stream, as on a handed-off connection
				// (beConn.endStream).
				if hc, ok := rc.out.(interface{ CloseWrite() error }); ok {
					hc.CloseWrite()
				}
			}
		}
	}
}

// acceptLoop admits client connections.
func (fe *FrontEnd) acceptLoop() {
	defer fe.wg.Done()
	for {
		conn, err := fe.ln.Accept()
		if err != nil {
			return
		}
		fe.conns.Add(1)
		fe.wg.Add(1)
		go func() {
			defer fe.wg.Done()
			fe.serveClient(conn)
		}()
	}
}

// feConn tracks one client connection at the front-end. The record — with
// its 16 KB read buffer and the per-batch scratch below — comes from
// feConnPool and goes back when the connection closes, so a connection
// costs the front-end no allocation of its own; what a batch needs is
// reused from one batch to the next.
type feConn struct {
	id    core.ConnID
	ec    *dispatch.Conn // nil until openConn admits the connection
	conn  net.Conn
	br    *bufio.Reader
	relay *relayConn

	// batchStart is when the current pipelined batch finished arriving —
	// the latency clock's zero, matching the simulator's delay
	// definition. Owner-goroutine only (stamped by readBatch; relayed
	// requests copy it into their pendingReq before publication).
	batchStart time.Time

	// reqNodes lists the back-ends that received traffic for this
	// connection, in first-use order, for the CLOSE fan-out (one node
	// unless relaying). mu guards it: the health loop's re-dispatch
	// touches it from outside the connection's own goroutine. seq stays
	// owner-only (re-dispatch resends already-sequenced lines).
	mu       sync.Mutex
	reqNodes []core.NodeID
	seq      int
	// closeSent: the CLOSE went out with the batch whose last request ended
	// the connection, and closeClient owes the back-end none. Owner-only.
	closeSent bool
	// pendingMove is a re-dispatch-requested handling change (NoNode
	// when none): the health loop records it, and the connection's own
	// goroutine applies it — engine Conn state is owner-serialized.
	pendingMove core.NodeID

	// Batch scratch, owner-only: the parsed requests (their header
	// storage is what ReadRequestInto reuses), the batch in the policy's
	// vocabulary, and the control lines being assembled for one write.
	reqs  []httpmsg.Request
	batch core.Batch
	line  []byte
	// lines is the relay path's per-batch list of request lines (each is
	// also held by its pendingReq, for re-dispatch).
	lines [][]byte

	// The handoff's RawConn.Control callback, bound to this record once so
	// that a handoff instantiates no closure, with its argument and result:
	// it sends line on hoTo (see FrontEnd.handOff).
	sendFD func(fd uintptr)
	hoTo   *net.UnixConn
	hoErr  error
}

// feConnScratchMax is the pipeline depth past which a closing connection's
// batch scratch is dropped instead of pooled.
const feConnScratchMax = 64

var feConnPool = sync.Pool{New: func() any {
	c := &feConn{br: bufio.NewReaderSize(nil, 16<<10)}
	c.sendFD = func(fd uintptr) { c.hoErr = writeHandoff(c.hoTo, c.line, int(fd)) }
	return c
}}

func (fe *FrontEnd) newConn(conn net.Conn) *feConn {
	c := feConnPool.Get().(*feConn)
	c.conn = conn
	c.br.Reset(conn)
	c.pendingMove = core.NoNode
	return c
}

// recycle returns a closed connection's record to the pool. A relayed
// connection's record has been published to the health loop through its
// pendingReqs, which may still hold it; that one is left to the collector.
func (c *feConn) recycle() {
	if c.relay != nil {
		return
	}
	c.br.Reset(nil)
	reqs, batch, line := c.reqs[:0], c.batch[:0], c.line[:0]
	if cap(reqs) > feConnScratchMax {
		reqs, batch, line = nil, nil, nil
	}
	*c = feConn{br: c.br, sendFD: c.sendFD, reqNodes: c.reqNodes[:0], reqs: reqs, batch: batch, line: line}
	feConnPool.Put(c)
}

// setReqNode records that dest received traffic for this connection and
// reports whether it already had.
func (c *feConn) setReqNode(dest core.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.reqNodes {
		if n == dest {
			return true
		}
	}
	c.reqNodes = append(c.reqNodes, dest)
	return false
}

// serveClient runs the forwarding-module read loop for one client
// connection: parse requests, group pipelined bursts into batches, dispatch
// through the policy, tag and forward to back-ends.
func (fe *FrontEnd) serveClient(conn net.Conn) {
	c := fe.newConn(conn)
	defer fe.closeClient(c)

	for {
		if err := fe.readBatch(c); err != nil {
			return
		}
		if err := fe.serveBatch(c); err != nil {
			return
		}
		if !c.reqs[len(c.reqs)-1].KeepAlive() {
			// The connection ends with this batch. What the client still
			// sends is discarded, not served, until it closes (its response
			// stream ends behind the last response) or goes idle.
			c.conn.SetReadDeadline(time.Now().Add(fe.cfg.IdleTimeout))
			c.br.Discard(math.MaxInt)
			return
		}
		yieldThread() // the batch is on its way; next comes a wait for the client
	}
}

// serveBatch admits the connection on its first batch and dispatches the
// batch's requests.
func (fe *FrontEnd) serveBatch(c *feConn) error {
	if c.ec == nil {
		if err := fe.openConn(c, c.batch[0]); err != nil {
			return err
		}
	}
	return fe.dispatchBatch(c)
}

// trackDispatch accounts the time spent in a dispatch-engine call toward
// the front-end utilization figure. Unlike the old polMu design, dispatch
// work is not serialized: client handlers call the engine concurrently and
// the busy time simply accumulates across goroutines.
func (fe *FrontEnd) trackDispatch() func() {
	t0 := time.Now()
	return func() {
		fe.busyNanos.Add(time.Since(t0).Nanoseconds())
	}
}

// timerResolution is the shortest wait the runtime keeps: a processor with
// nothing to run sleeps in epoll_wait, whose timeout is whole milliseconds,
// so a shorter deadline fires on time only while something else happens to
// be running (a 50 µs read deadline under load: 57 µs median, 1.5 ms p99,
// 25 ms worst — and the late ones come together, every waiting connection
// released by the same wake-up).
const timerResolution = time.Millisecond

// readBatch reads one pipelined batch into c.reqs / c.batch: the first
// request blocks until the idle timeout; subsequent requests are taken
// while already buffered or arriving within the batch window, for as long
// as the last one read keeps the connection alive. It returns an error when
// no request could be read.
func (fe *FrontEnd) readBatch(c *feConn) error {
	window := fe.cfg.BatchWindow

	c.reqs, c.batch = c.reqs[:0], c.batch[:0]
	c.conn.SetReadDeadline(time.Now().Add(fe.cfg.IdleTimeout))
	if err := fe.readRequest(c); err != nil {
		return err
	}
	// A request that ends the connection (HTTP/1.0 without keep-alive,
	// Connection: close) has no successor to wait for.
	for c.reqs[len(c.reqs)-1].KeepAlive() {
		if c.br.Buffered() == 0 {
			if window < timerResolution {
				break
			}
			// Give closely spaced pipelined requests a brief chance to
			// land, then call the batch complete. The wait itself is
			// idle time, not dispatcher work.
			c.conn.SetReadDeadline(time.Now().Add(window))
			if _, err := c.br.Peek(1); err != nil {
				break
			}
		}
		c.conn.SetReadDeadline(time.Now().Add(window))
		if fe.readRequest(c) != nil {
			break
		}
	}
	c.conn.SetReadDeadline(time.Time{})
	c.batchStart = time.Now()
	return nil
}

// readRequest parses the next request into the next slot of c.reqs —
// reusing whatever that slot held on an earlier batch — and appends its
// policy form to c.batch.
//
//phttp:hotpath
func (fe *FrontEnd) readRequest(c *feConn) error {
	n := len(c.reqs)
	if n < cap(c.reqs) {
		c.reqs = c.reqs[:n+1]
	} else {
		c.reqs = append(c.reqs, httpmsg.Request{})
	}
	req := &c.reqs[n]
	if err := httpmsg.ReadRequestInto(c.br, fe.eng.Interner(), req); err != nil {
		c.reqs = c.reqs[:n]
		return err
	}
	c.batch = append(c.batch, toRequest(req))
	return nil
}

// toRequest converts a parsed request into the policy's vocabulary,
// carrying the parse-time interned ID so dispatch never hashes the target
// string. The response size is not known to a real front-end; LARD only
// uses it to size mapping entries, so the dispatcher estimates with a
// nominal value.
func toRequest(r *httpmsg.Request) core.Request {
	return core.Request{Target: core.Target(r.Target), ID: r.ID, Size: nominalMappingSize}
}

// nominalMappingSize is the per-target size estimate used by the
// dispatcher's mapping model; the paper's front-end likewise has no
// knowledge of response sizes when requests arrive.
const nominalMappingSize = 8 << 10

// unavailableResponse is the answer when no back-end is Up: the client
// should back off briefly and retry, per the Retry-After hint.
const unavailableResponse = "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"

// openConn assigns the handling node for the first request (and registers
// the relay route). The handoff travels with the first batch
// (dispatchBatch).
func (fe *FrontEnd) openConn(c *feConn, first core.Request) error {
	if !fe.eng.HasUp() {
		fe.unavailable.Inc()
		io.WriteString(c.conn, unavailableResponse)
		fe.lat.Record(time.Since(c.batchStart).Microseconds())
		return fmt.Errorf("cluster: no Up back-end")
	}
	done := fe.trackDispatch()
	ec, _ := fe.eng.ConnOpen(first)
	done()
	c.ec = ec
	c.id = ec.ID()

	if fe.relaying() {
		rc := &relayConn{client: c.conn, out: c.conn}
		c.relay = rc
		fe.relayMu.Lock()
		fe.relayConns[c.id] = rc
		fe.relayMu.Unlock()
	}
	return nil
}

// handOff passes c's client socket to back-end n together with the lines
// in c.line, HANDOFF first: one sendmsg on the node's session, made while
// the connection lends its descriptor (RawConn.Control). Nothing is dupped
// or closed and the socket's mode is not touched — the front-end goes on
// reading the connection through the poller, deadlines and all, while the
// back-end writes to the descriptor the kernel installed for it.
//
//phttp:hotpath
func (fe *FrontEnd) handOff(c *feConn, n core.NodeID) error {
	sc, ok := c.conn.(syscall.Conn)
	if !ok {
		return handoffRefused(n, "the client connection has no descriptor")
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	link := fe.links[n]
	link.ctrlMu.Lock()
	uc, ok := link.ctrl.(*net.UnixConn)
	if !ok {
		link.ctrlMu.Unlock()
		return handoffRefused(n, "no UNIX session")
	}
	c.hoTo = uc
	err = rc.Control(c.sendFD)
	link.ctrlMu.Unlock()
	if err == nil && c.hoErr != nil {
		err = c.hoErr
		fe.suspect(n) // a failed send is liveness evidence; a client fault is not
	}
	c.hoTo, c.hoErr = nil, nil
	return err
}

// handoffRefused is handOff's cold error path.
func handoffRefused(n core.NodeID, why string) error {
	return fmt.Errorf("cluster: handoff to backend %v: %s", n, why)
}

// dispatchBatch assigns the batch in c.batch and forwards the tagged
// requests: one control write per destination back-end. With handoff or
// back-end forwarding the destination is always the handling node, so the
// whole batch is one write: on the connection's first batch the handoff's
// sendmsg, and a batch whose last request ends the connection carries the
// connection's CLOSE too.
//
//phttp:hotpath
func (fe *FrontEnd) dispatchBatch(c *feConn) error {
	c.mu.Lock()
	move := c.pendingMove
	c.pendingMove = core.NoNode
	c.mu.Unlock()
	if move != core.NoNode && fe.eng.NodeIsDown(c.ec.Handling()) {
		done := fe.trackDispatch()
		fe.eng.MoveConn(c.ec, move)
		done()
	}
	done := fe.trackDispatch()
	assignments := fe.eng.AssignBatch(c.ec, c.batch)
	handling := c.ec.Handling()
	done()

	if fe.relaying() {
		fe.relayBatch(c, assignments)
		return nil
	}
	line := c.line[:0]
	first := !c.setReqNode(handling)
	if first {
		line = appendHandoff(line, c.id)
	}
	for i, a := range assignments {
		req := &c.reqs[i]
		remote := core.NoNode
		if a.Forward {
			// Tag the request: the handling node must fetch it from the
			// assigned node.
			remote = a.Node
		}
		line = appendReq(line, c.id, c.seq, protoOf(req.Proto), req.KeepAlive(), remote, core.Target(req.Target))
		c.seq++
	}
	last := !c.reqs[len(c.reqs)-1].KeepAlive()
	if last {
		line = appendClose(line, c.id)
	}
	c.line = line
	var err error
	if first {
		err = fe.handOff(c, handling)
	} else if err = fe.sendCtrl(handling, line); err != nil {
		fe.suspect(handling) // a failed send is liveness evidence
	}
	if err != nil {
		// With the client socket handed off (or forwarding through the
		// handling node), the FE cannot replay the request elsewhere —
		// connection close is the fallback.
		return err
	}
	c.closeSent = last
	// Handoff / BE forwarding: responses bypass the front-end, so the
	// observable latency here is batch completion → request forwarded.
	waited := time.Since(c.batchStart).Microseconds()
	for range assignments {
		fe.lat.Record(waited)
	}
	return nil
}

// relayBatch forwards a relayed batch: each request goes directly to its
// assigned node, and every node gets its share of the batch in one write.
// Each request keeps its own line (re-dispatch re-sends it) and is
// registered before anything is sent: a node that dies between the write
// and its response must find the request sweepable.
func (fe *FrontEnd) relayBatch(c *feConn, assignments []core.Assignment) {
	c.lines = c.lines[:0]
	for i, a := range assignments {
		req := &c.reqs[i]
		line := appendReq(nil, c.id, c.seq, protoOf(req.Proto), req.KeepAlive(), core.NoNode, core.Target(req.Target))
		fe.addPending(c, c.seq, a.Node, line)
		c.lines = append(c.lines, line)
		c.seq++
		if !req.KeepAlive() {
			c.relay.mu.Lock()
			c.relay.endAt = c.seq
			c.relay.mu.Unlock()
		}
	}
	for i, a := range assignments {
		if c.lines[i] == nil {
			continue // went out with an earlier node's write
		}
		dest := a.Node
		buf := c.line[:0]
		if !c.setReqNode(dest) {
			buf = appendRelay(buf, c.id)
		}
		for j := i; j < len(assignments); j++ {
			if assignments[j].Node == dest {
				buf = append(buf, c.lines[j]...)
				c.lines[j] = nil
			}
		}
		c.line = buf
		if err := fe.sendCtrl(dest, buf); err != nil {
			// Write failure is liveness evidence; the requests stay
			// pending and are re-dispatched once the node is confirmed
			// Down.
			fe.suspect(dest)
		}
	}
}

// sendCtrl writes one buffer of control messages to a back-end. A slot with
// no live control link (unreachable at start, or torn down by AddBackend
// mid-swap) fails fast instead of dereferencing a nil conn.
func (fe *FrontEnd) sendCtrl(n core.NodeID, msgs []byte) error {
	link := fe.links[n]
	link.ctrlMu.Lock()
	defer link.ctrlMu.Unlock()
	if link.ctrl == nil {
		return fmt.Errorf("cluster: backend %v not connected", n)
	}
	_, err := link.ctrl.Write(msgs)
	return err
}

// closeClient tears one client connection down on EOF, error or idle
// timeout: back-ends are told to release it and the policy frees its load.
func (fe *FrontEnd) closeClient(c *feConn) {
	c.mu.Lock()
	nodes := c.reqNodes
	c.mu.Unlock()
	if len(nodes) > 0 && !c.closeSent {
		c.line = appendClose(c.line[:0], c.id)
		for _, n := range nodes {
			fe.sendCtrl(n, c.line)
		}
	}
	fe.pendingMu.Lock()
	delete(fe.pending, c.id)
	fe.pendingMu.Unlock()
	if c.relay != nil {
		fe.relayMu.Lock()
		delete(fe.relayConns, c.id)
		fe.relayMu.Unlock()
	}
	if c.ec != nil {
		done := fe.trackDispatch()
		fe.eng.ConnClose(c.ec)
		done()
	}
	c.conn.Close()
	c.recycle()
}

// HandoffSocketDir creates a private directory for handoff sockets.
func HandoffSocketDir() (string, error) {
	return os.MkdirTemp("", "phttp-handoff-")
}
