package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/httpmsg"
	"phttp/internal/membership"
	"phttp/internal/policy"
)

// FrontEndConfig parameterizes the front-end node.
type FrontEndConfig struct {
	// Nodes is the number of back-ends.
	Nodes int
	// Policy is a dispatch policy name ("wrr", "lard", "lardr" or
	// "extlard").
	Policy string
	// PolicyOptions are policy options forwarded to dispatch.Build
	// (dispatch.Resolve validates them); they override the typed fields
	// below per key. Scenario-driven front-ends are configured through
	// them.
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

	// HeartbeatTimeout and ConfirmWindow parameterize failure detection
	// (membership.Config): a back-end silent past HeartbeatTimeout — its
	// periodic DISKQ reports double as heartbeats — turns Suspect, and a
	// Suspect node unheard for ConfirmWindow is confirmed Down. Zero
	// keeps the membership package defaults.
	HeartbeatTimeout time.Duration
	ConfirmWindow    time.Duration
	// RetryBudget caps re-dispatch attempts per relayed request after its
	// serving node is confirmed Down; past it the client connection is
	// closed (the connection-close fallback). Zero means no retries, as
	// in the simulator; DefaultConfig and phttp-frontend give
	// DefaultRetryBudget.
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
}

// The elastic-membership machinery's knobs. A back-end gets 1+dialRetries
// connection attempts at start (and in AddBackend), the waits between them
// growing by dialBackoff: an unreachable one starts Down instead of
// aborting the front-end, and start fails only when zero back-ends are
// reachable. healthInterval is the failure detector's evaluation cadence
// (membership.Table.Tick).
const (
	dialRetries        = 3
	dialBackoff        = 50 * time.Millisecond
	healthInterval     = 100 * time.Millisecond
	DefaultRetryBudget = 2
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
	// carries the handed-off descriptors, or when relaying a TCP stream,
	// which also carries the relayed responses back.
	ctrlMu sync.Mutex // guards ctrl and serializes writes to it
	ctrl   net.Conn
}

// close tears the link's session down; its read loop drains and exits on
// its own conn.
func (l *beLink) close() {
	l.ctrlMu.Lock()
	defer l.ctrlMu.Unlock()
	if l.ctrl != nil {
		l.ctrl.Close()
		l.ctrl = nil
	}
}

// FrontEnd is the running front-end node: client listener, dispatch engine,
// forwarding module, and per-back-end control sessions. Dispatch runs
// concurrently per client connection — the engine's policy state is safe
// for parallel callers, so there is no front-end-wide policy lock.
type FrontEnd struct {
	cfg FrontEndConfig
	// ln is the client listening socket as an *os.File, whose RawConn
	// accepts through the poller (acceptLoop); addr is its address.
	ln   *os.File
	addr string
	// clients serves each accepted connection on a reused worker
	// (clientWorker).
	clients   *workers[int]
	links     []*beLink
	endpoints []BackendEndpoints

	eng *dispatch.Engine
	mem *membership.Table
	// tier carries this front-end's dstate.Member over sockets (nil for
	// the single-front-end configuration).
	tier *peerTier

	// relays is the route table of relayed connections, by ID. relayMu
	// guards it and each entry's relayed requests (feConn.relayed): the
	// session readers file response frames there, a Down transition wakes
	// every entry, and the connection's own goroutine writes the frames
	// out and re-dispatches what a Down node lost. relayMu is taken after
	// the membership table's lock, never before it.
	relayMu sync.Mutex
	relays  map[core.ConnID]*feConn

	// socks holds every client worker's socket, from the worker's start,
	// its epoll set open, to its retirement, with the back-end its
	// connection is handed off to (handoff and BE forwarding), or NoNode.
	// A Down transition wakes the sockets handed off to the dead node, and
	// Close wakes them all (clientSock.wake); each one's own goroutine
	// then resets its connection. socksMu is taken after the membership
	// table's lock, never before it.
	socksMu sync.Mutex
	socks   map[*clientSock]core.NodeID

	// unavailable counts connections refused with 503 (no Up back-end);
	// redispatched counts in-flight requests re-sent after a node death.
	unavailable  atomic.Int64
	redispatched atomic.Int64

	// lat is the wall-clock per-request latency histogram behind the
	// /status endpoint, in microseconds from batch completion at the
	// front-end. Relay records end-to-end when the response is written to
	// the client (a re-dispatched request keeps its batch's start, so the
	// retry delay is in the sample, not dropped); handoff and BE
	// forwarding record at request forward — the front-end never sees
	// those responses — and a 503 refusal records the refusal itself
	// rather than vanishing from the distribution.
	lat *core.LatencyHist

	// busyNanos accumulates dispatcher + forwarding-module processing
	// time for the Section 8.2 front-end utilization figure.
	busyNanos atomic.Int64
	started   time.Time

	conns atomic.Int64

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// relayReq is one relayed request whose response is not yet written to the
// client — the unit of re-dispatch. fe.relayMu guards frame; node and tries
// are the connection's own goroutine's.
type relayReq struct {
	node  core.NodeID
	line  []byte // the REQ message, kept for re-dispatch
	tries int
	frame *chunkWriter // the response, once it has arrived (readFrame)
}

// NewFrontEnd starts the front-end: it listens for clients on loopback and
// connects a control session to every back-end endpoint. Endpoints may
// belong to in-process Backends or to separate phttp-backend processes on
// the same machine (the handoff mechanism requires a shared kernel; see
// DESIGN.md §4.2).
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
		// per member), its policy replica/shard sits behind a tier member,
		// and the engine dispatches through that member.
		spec.ConnIDBase = int64(cfg.FEID) << 40
		pol, berr := dispatch.Build(spec)
		if berr != nil {
			return nil, berr
		}
		if tier, err = newPeerTier(cfg, pol); err != nil {
			return nil, err
		}
		if eng, err = dispatch.NewEngineWithStore(spec, tier.member); err != nil {
			tier.Close()
			return nil, err
		}
		tier.finishInit(eng.Interner())
	} else if eng, err = dispatch.NewEngine(spec); err != nil {
		return nil, err
	}
	fe := &FrontEnd{
		cfg:       cfg,
		tier:      tier,
		eng:       eng,
		endpoints: append([]BackendEndpoints(nil), backends...),
		relays:    make(map[core.ConnID]*feConn),
		socks:     make(map[*clientSock]core.NodeID),
		lat:       core.NewLatencyHist(),
		started:   time.Now(),
		closed:    make(chan struct{}),
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
	if fe.ln, fe.addr, err = listenTCP(listen); err != nil {
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
	fe.clients = newWorkers(fe.clientWorker, fe.closed, &fe.wg)
	fe.wg.Add(1)
	go fe.acceptLoop()
	fe.wg.Add(1)
	go fe.healthLoop()
	return fe, nil
}

// Runs reports whether the prototype implements mechanism m: single
// handoff, BE forwarding (the paper's choice) and relaying. Multiple
// handoff exists only in the simulator, as in the paper.
func Runs(m core.Mechanism) bool {
	return m == core.SingleHandoff || m == core.BEForwarding || m == core.RelayFrontEnd
}

func validateFEConfig(cfg FrontEndConfig, backends int) error {
	if cfg.Nodes != backends {
		return fmt.Errorf("cluster: config says %d nodes but %d back-ends supplied", cfg.Nodes, backends)
	}
	if !Runs(cfg.Mechanism) {
		return fmt.Errorf("cluster: prototype does not implement mechanism %v (simulator only)", cfg.Mechanism)
	}
	// Policy names are validated by dispatch.Build when the engine
	// is built; no second list of valid names lives here.
	if cfg.Frontends > 1 && (cfg.FEID < 0 || cfg.FEID >= cfg.Frontends) {
		return fmt.Errorf("cluster: front-end id %d outside tier [0,%d)", cfg.FEID, cfg.Frontends)
	}
	if cfg.RetryBudget < 0 {
		return fmt.Errorf("cluster: RetryBudget must be non-negative, got %d", cfg.RetryBudget)
	}
	if cfg.Frontends <= 1 && cfg.State != dstate.ModeLocal {
		return fmt.Errorf("cluster: state=%v needs frontends > 1 (a single front-end is always local)", cfg.State)
	}
	return dstate.CheckTier(cfg.State, cfg.Frontends, cfg.Mechanism)
}

// dialRetry dials one back-end with bounded retries and linear backoff.
// A vacant slot (no endpoint for the mechanism) fails immediately: it is
// provisioned capacity awaiting AddBackend, not a dial target.
func (fe *FrontEnd) dialRetry(id core.NodeID, ep BackendEndpoints) (*beLink, error) {
	if fe.relaying() && ep.Ctrl == "" || !fe.relaying() && ep.Handoff == "" {
		return nil, fmt.Errorf("cluster: backend slot %v is vacant (no control endpoint)", id)
	}
	var lastErr error
	for attempt := 0; attempt <= dialRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * dialBackoff)
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
// or when relaying a TCP session — and starts its read loop.
func (fe *FrontEnd) dial(id core.NodeID, ep BackendEndpoints) (*beLink, error) {
	link := &beLink{id: id}
	var err error
	if fe.relaying() {
		link.ctrl, err = net.Dial("tcp", ep.Ctrl)
	} else {
		link.ctrl, err = net.Dial("unix", ep.Handoff)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: dial backend %v: %w", id, err)
	}
	ctrl := link.ctrl
	fe.wg.Add(1)
	go func() { defer fe.wg.Done(); fe.ctrlReadLoop(link, ctrl) }()
	return link, nil
}

// Addr returns the client-facing listen address.
func (fe *FrontEnd) Addr() string { return fe.addr }

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
	return fe.tier.member.RemoteOpens()
}

// TierSyncs returns completed replication rounds (0 without a tier).
func (fe *FrontEnd) TierSyncs() int64 {
	if fe.tier == nil {
		return 0
	}
	return fe.tier.member.Syncs()
}

// TierFallbacks returns state transactions decided locally because the
// owning peer was unreachable (0 without a tier).
func (fe *FrontEnd) TierFallbacks() int64 {
	if fe.tier == nil {
		return 0
	}
	return fe.tier.member.Fallbacks()
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

// PolicyName returns the canonical dispatch name of the running
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

// Close shuts the front-end down in bounded time: it wakes every client
// worker's socket for good (DESIGN §4.2).
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
		fe.socksMu.Lock()
		for s := range fe.socks {
			s.wake(&s.stopped)
		}
		fe.socksMu.Unlock()
	})
	fe.wg.Wait()
}

// ctrlReadLoop consumes back-end → front-end traffic: disk queue reports,
// which feed the policy, relayed responses, and the CLOSE by which a
// back-end says it has refused a relayed connection. It never waits on a
// client: a frame is read into a pooled chunk and filed under its
// connection, whose own goroutine writes it out (relayOut) and releases
// the chunk. The conn is passed explicitly — AddBackend swaps link
// conns in place, and a loop must drain exactly the conn it was started
// for. Each DISKQ report doubles as a heartbeat; a read error is liveness
// evidence and marks the node Suspect.
func (fe *FrontEnd) ctrlReadLoop(link *beLink, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		msg, err := readCtrl(br)
		if err == nil && msg.Kind == kindResp {
			var frame *chunkWriter
			if frame, err = readFrame(br, msg.Size); err == nil {
				fe.fileFrame(msg.Conn, msg.Seq, frame)
			}
		}
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

// fileFrame files a relayed response under its request. A frame for a
// connection gone, or a second one for a re-dispatched request, is dropped
// and its chunk released.
func (fe *FrontEnd) fileFrame(id core.ConnID, seq int, frame *chunkWriter) {
	fe.relayMu.Lock()
	defer fe.relayMu.Unlock()
	if c := fe.relays[id]; c != nil {
		if r := c.relayed[seq]; r != nil && r.frame == nil {
			r.frame = frame
			wake(c.ready)
			return
		}
	}
	frame.release()
}

// dropRelayed takes relayed connection id — refused by a back-end, or with
// nowhere left to re-dispatch — out of the route table, shuts its client
// socket down and wakes its goroutine should it be waiting for a response:
// it then tears the connection down as for any closed client, and closes
// the descriptor, which it may be using still. An ID no longer in the
// table is closed already (closeClient takes it out before closing).
func (fe *FrontEnd) dropRelayed(id core.ConnID) {
	fe.relayMu.Lock()
	defer fe.relayMu.Unlock()
	if c := fe.relays[id]; c != nil {
		delete(fe.relays, id)
		shutBoth(c.sock.fd)
		wake(c.ready)
	}
}

// wake leaves a token in a one-slot channel.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

var errRelayDropped = errors.New("cluster: relayed connection dropped")

// relayOut writes a relayed batch's responses, seq from first up to c.seq,
// to the client in sequence order as their frames arrive, and returns once
// the last is written. A write gets IdleTimeout to move a byte, and only
// stallGrace while maxPending or more responses wait: the rule by which a
// back-end refuses a handed-off client that does not read (beConn.Write).
// Before each wait for frames, and so after a Down node's wake-up, the
// requests a Down node lost are re-dispatched (redispatchLost). A wait
// gets IdleTimeout too: a response lost on a node that is not Down — its
// session replaced by AddBackend — closes the client that waits for it
// as one that waits and sends nothing is.
func (fe *FrontEnd) relayOut(c *feConn, first int) error {
	for seq := first; seq < c.seq; {
		fe.relayMu.Lock()
		r, dropped := c.relayed[seq], fe.relays[c.id] != c
		var frame *chunkWriter
		if r != nil && r.frame != nil {
			frame, r.frame = r.frame, nil
			delete(c.relayed, seq)
			c.spare = append(c.spare, r)
		}
		fe.relayMu.Unlock()
		if dropped {
			return errRelayDropped
		}
		if frame == nil {
			if err := fe.redispatchLost(c, seq); err != nil {
				return err
			}
			if c.idle == nil {
				c.idle = time.NewTimer(fe.cfg.IdleTimeout)
			} else {
				c.idle.Reset(fe.cfg.IdleTimeout)
			}
			select {
			case <-c.ready:
				stopTimer(c.idle)
			case <-c.idle.C:
				return errRelayDropped
			case <-fe.closed:
				stopTimer(c.idle)
				return errRelayDropped
			}
			continue
		}
		// End-to-end relay latency, from the batch's arrival: a
		// re-dispatched request's sample includes its retry.
		fe.lat.Record(time.Since(c.batchStart).Microseconds())
		grace := fe.cfg.IdleTimeout
		if c.seq-seq >= maxPending {
			grace = stallGrace
		}
		for done := 0; done < frame.n; {
			c.sock.deadline(time.Now().Add(grace))
			n, err := c.sock.Write(frame.buf[done:frame.n])
			done += n
			if err != nil && (n == 0 || !errors.Is(err, os.ErrDeadlineExceeded)) {
				frame.release()
				return err
			}
		}
		frame.release()
		seq++
	}
	return nil
}

// listenTCP listens for clients on addr (net.Listen: socket, SO_REUSEADDR,
// bind, listen) with TCP_NODELAY set on the listening socket — back-ends
// write responses on what it accepts, and Linux copies the option to every
// accepted socket — and keeps it as an *os.File, returning it with the
// address it is bound to. A net.TCPListener's RawConn supports only
// Control, not the Read that acceptLoop accepts through.
func listenTCP(addr string) (*os.File, string, error) {
	lc := net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) error {
		var err error
		rc.Control(func(s uintptr) { err = syscall.SetsockoptInt(int(s), syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1) })
		return err
	}}
	ln, err := lc.Listen(context.Background(), "tcp", addr)
	if err != nil {
		return nil, "", err
	}
	defer ln.Close() // the file holds a descriptor of its own
	f, err := ln.(*net.TCPListener).File()
	return f, ln.Addr().String(), err
}

// acceptLoop admits client connections: one accept4 per connection, made
// when the poller finds the listening socket readable, and the descriptor
// it returns handed to a worker. That is all of Go's accept the front-end
// keeps: no peer and local address lookups and objects, no keep-alive
// probes (IdleTimeout closes a client gone silent), no net.Conn and no
// *os.File.
func (fe *FrontEnd) acceptLoop() {
	defer fe.wg.Done()
	rc, err := fe.ln.SyscallConn()
	if err != nil {
		return
	}
	var a acceptor
	accept := a.accept // bound once: an accept instantiates no closure
	for {
		if err := rc.Read(accept); err != nil || a.err != nil {
			return
		}
		fe.conns.Add(1)
		fe.clients.start(a.fd)
	}
}

// acceptor is the accept loop's RawConn.Read callback with its result.
type acceptor struct {
	fd  int
	err error
}

// accept takes one connection off listening socket s, non-blocking and
// close-on-exec, and nothing else. It reports false, to wait for the
// socket to be readable, while no connection is pending; an error other
// than a connection aborted before it was taken ends the accept loop.
//
//phttp:hotpath
func (a *acceptor) accept(s uintptr) bool {
	for {
		fd, err := accept4(int(s))
		switch err {
		case nil:
			a.fd, a.err = fd, nil
			return true
		case syscall.EAGAIN:
			return false
		case syscall.ECONNABORTED, syscall.EINTR:
			continue
		}
		a.fd, a.err = -1, err
		return true
	}
}

// feConn tracks one client connection at the front-end. The record — with
// its 16 KB read buffer, its epoll set and the per-batch scratch below —
// belongs to a worker (clientWorker) and serves its connections one after
// another, so a connection costs the front-end no allocation of its own;
// what a batch needs is reused from one batch to the next.
type feConn struct {
	id core.ConnID
	ec *dispatch.Conn // nil until openConn admits the connection
	// sock is the client socket. Its descriptor is what handOff sends as
	// it is: only this record's worker closes it (closeClient), so the
	// number cannot go to another socket while a handoff is sent.
	sock *clientSock
	br   *bufio.Reader

	// batchStart is when the current pipelined batch finished arriving —
	// the latency clock's zero, matching the simulator's delay
	// definition. Owner-goroutine only (stamped by readBatch).
	batchStart time.Time

	// reqNodes lists the back-ends that received traffic for this
	// connection, in first-use order, for the CLOSE fan-out (one node
	// unless relaying), and seq numbers its requests. Owner-only.
	reqNodes []core.NodeID
	seq      int
	// closeSent: the CLOSE went out with the batch whose last request ended
	// the connection, and closeClient owes the back-end none.
	closeSent bool

	// Batch scratch, owner-only: the parsed requests (their header
	// storage is what ReadRequestInto reuses), the batch in the policy's
	// vocabulary, and the control lines being assembled for one write.
	reqs  []httpmsg.Request
	batch core.Batch
	line  []byte
	// lines is the relay path's per-batch list of request lines (each is
	// also held by its relayReq, for re-dispatch).
	lines [][]byte

	// Relay only: relaying is set from openConn on, while the connection
	// has its entry in fe.relays. relayed holds its requests whose
	// responses are not yet written, by sequence number (under
	// fe.relayMu); ready wakes relayOut when a frame arrives or the entry
	// is dropped; idle times relayOut's wait for a frame. The three are
	// made for the record's first relayed connection and kept for the
	// next, and so are the records of written requests, with their lines'
	// storage, in spare: relayBatch takes its records from there.
	relaying bool
	relayed  map[int]*relayReq
	ready    chan struct{}
	idle     *time.Timer
	spare    []*relayReq
}

// feConnScratchMax is the pipeline depth past which a closing connection's
// batch scratch is dropped instead of kept for the next.
const feConnScratchMax = 64

// newFEConn makes a worker's client record; clientWorker opens its epoll
// set.
func newFEConn() *feConn {
	return &feConn{sock: new(clientSock), br: bufio.NewReaderSize(nil, 16<<10)}
}

// recycle readies a closed connection's record for the worker's next one.
// Once closeClient has taken the connection out of the route table, or its
// socket's node out of fe.socks, no Down sweep or dropRelayed reaches the
// next connection.
func (c *feConn) recycle() {
	c.br.Reset(nil)
	reqs, batch, line, spare := c.reqs[:0], c.batch[:0], c.line[:0], c.spare
	if cap(reqs) > feConnScratchMax {
		reqs, batch, line, spare = nil, nil, nil, nil
	}
	clear(c.relayed)
	select {
	case <-c.ready:
	default:
	}
	*c = feConn{sock: c.sock, br: c.br, reqNodes: c.reqNodes[:0], reqs: reqs, batch: batch, line: line,
		relayed: c.relayed, ready: c.ready, idle: c.idle, spare: spare}
}

// spareReq returns a request record for relayBatch to fill: a spare one,
// emptied, its line's storage kept.
func (c *feConn) spareReq() *relayReq {
	n := len(c.spare)
	if n == 0 {
		return new(relayReq)
	}
	r := c.spare[n-1]
	c.spare = c.spare[:n-1]
	*r = relayReq{line: r.line[:0]}
	return r
}

// stopTimer stops t and empties its channel, ready for Reset.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// setReqNode records that dest received traffic for this connection and
// reports whether it already had.
func (c *feConn) setReqNode(dest core.NodeID) bool {
	for _, n := range c.reqNodes {
		if n == dest {
			return true
		}
	}
	c.reqNodes = append(c.reqNodes, dest)
	return false
}

// clientWorker is one front-end worker: it serves client connections, the
// first fd and then each next hands it, on one record until it retires.
// Its socket is in fe.socks meanwhile; one that joins after Close has
// walked them finds the front-end closed and wakes its own.
func (fe *FrontEnd) clientWorker(fd int, next func() (int, bool)) {
	c := newFEConn()
	defer c.sock.release()
	if c.sock.open() != nil {
		syscall.Close(fd)
		return
	}
	fe.socksMu.Lock()
	fe.socks[c.sock] = core.NoNode
	fe.socksMu.Unlock()
	defer func() {
		fe.socksMu.Lock()
		delete(fe.socks, c.sock)
		fe.socksMu.Unlock()
	}()
	select {
	case <-fe.closed:
		c.sock.wake(&c.sock.stopped)
	default:
	}
	for ok := true; ok; fd, ok = next() {
		fe.serveClient(c, fd)
	}
}

// serveClient runs the forwarding-module read loop for client connection
// fd on record c: parse requests, group pipelined bursts into batches,
// dispatch through the policy, tag and forward to back-ends.
func (fe *FrontEnd) serveClient(c *feConn, fd int) {
	if c.sock.attach(fd, true) != nil {
		syscall.Close(fd)
		return
	}
	c.br.Reset(c.sock)
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
			if c.relaying {
				// Relayed: the last response is written, and the stream
				// ends behind it as a back-end ends a handed-off one
				// (beConn.endStream).
				shutWrite(c.sock.fd)
			}
			c.sock.deadline(time.Now().Add(fe.cfg.IdleTimeout))
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
	c.sock.deadline(time.Now().Add(fe.cfg.IdleTimeout))
	if c.sock.down.Load() { // what is buffered is not dispatched to a dead node
		return errNodeDown
	}
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
			c.sock.deadline(time.Now().Add(window))
			if _, err := c.br.Peek(1); err != nil {
				break
			}
		}
		c.sock.deadline(time.Now().Add(window))
		if fe.readRequest(c) != nil {
			break
		}
	}
	c.sock.deadline(time.Time{})
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
		fe.unavailable.Add(1)
		io.WriteString(c.sock, unavailableResponse)
		fe.lat.Record(time.Since(c.batchStart).Microseconds())
		return fmt.Errorf("cluster: no Up back-end")
	}
	done := fe.trackDispatch()
	ec, _ := fe.eng.ConnOpen(first)
	done()
	c.ec = ec
	c.id = ec.ID()

	if fe.relaying() {
		if c.relayed == nil {
			c.relayed, c.ready = make(map[int]*relayReq), make(chan struct{}, 1)
		}
		c.relaying = true
		fe.relayMu.Lock()
		fe.relays[c.id] = c
		fe.relayMu.Unlock()
		return nil
	}
	fe.socksMu.Lock()
	fe.socks[c.sock] = ec.Handling()
	fe.socksMu.Unlock()
	return nil
}

// longAgo is a deadline that has passed.
var longAgo = time.Unix(1, 0)

// errNodeDown ends a handed-off connection whose node went Down.
var errNodeDown = errors.New("cluster: handed-off connection's node is down")

// handOff passes c's client socket to back-end n together with the lines
// in c.line, HANDOFF first: one sendmsg on the node's session, with the
// descriptor accept4 returned attached as it is. Nothing is dupped or
// closed and the socket's mode is not touched — the front-end goes on
// reading the connection through its worker's epoll set, deadlines and
// all, while the back-end writes to the descriptor the kernel installed
// for it.
//
//phttp:hotpath
func (fe *FrontEnd) handOff(c *feConn, n core.NodeID) error {
	link := fe.links[n]
	link.ctrlMu.Lock()
	uc, ok := link.ctrl.(*net.UnixConn)
	if !ok {
		link.ctrlMu.Unlock()
		return handoffRefused(n, "no UNIX session")
	}
	err := writeHandoff(uc, c.line, c.sock.fd)
	link.ctrlMu.Unlock()
	if err != nil {
		fe.suspect(n) // a failed send is liveness evidence
	}
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
	if h := c.ec.Handling(); fe.relaying() && fe.eng.NodeIsDown(h) {
		// The handling node died between batches: move the connection
		// before the batch is assigned, spending no retry, as no work was
		// lost. A handed-off connection is not moved: its dead node may
		// have left a response half-written on the client's stream. The
		// node's Down transition woke it instead (clientSock.wake), and it is
		// reset the moment it next waits on the client.
		done := fe.trackDispatch()
		fe.eng.Redispatch(c.ec, h, 0, 0)
		done()
	}
	done := fe.trackDispatch()
	assignments := fe.eng.AssignBatch(c.ec, c.batch)
	handling := c.ec.Handling()
	done()

	if fe.relaying() {
		fe.relayBatch(c, assignments)
		return fe.relayOut(c, c.seq-len(assignments))
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
// registered before anything is sent, so relayOut finds it should its node
// die before answering.
func (fe *FrontEnd) relayBatch(c *feConn, assignments []core.Assignment) {
	c.lines = c.lines[:0]
	fe.relayMu.Lock()
	for i, a := range assignments {
		req := &c.reqs[i]
		r := c.spareReq()
		r.node = a.Node
		r.line = appendReq(r.line, c.id, c.seq, protoOf(req.Proto), req.KeepAlive(), core.NoNode, core.Target(req.Target))
		c.relayed[c.seq] = r
		c.lines = append(c.lines, r.line)
		c.seq++
	}
	fe.relayMu.Unlock()
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
			// pending, and relayOut re-dispatches them once the node is
			// confirmed Down.
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
	if len(c.reqNodes) > 0 && !c.closeSent {
		c.line = appendClose(c.line[:0], c.id)
		for _, n := range c.reqNodes {
			fe.sendCtrl(n, c.line)
		}
	}
	if c.relaying {
		fe.relayMu.Lock()
		delete(fe.relays, c.id)
		for _, r := range c.relayed {
			if r.frame != nil {
				r.frame.release()
			}
		}
		fe.relayMu.Unlock()
	} else if c.ec != nil {
		fe.socksMu.Lock()
		fe.socks[c.sock] = core.NoNode
		fe.socksMu.Unlock()
	}
	if c.ec != nil {
		done := fe.trackDispatch()
		fe.eng.ConnClose(c.ec)
		done()
	}
	if c.sock.down.Load() || c.sock.stopped.Load() {
		// Its node died holding the connection, or the front-end closed:
		// the client sees a reset, not a clean end of stream it might take
		// for a complete answer.
		lingerOff(c.sock.fd)
	}
	c.sock.close()
	c.recycle()
}

// lingerOff makes closing socket fd reset the connection (SO_LINGER 0).
func lingerOff(fd int) {
	syscall.SetsockoptLinger(fd, syscall.SOL_SOCKET, syscall.SO_LINGER, &syscall.Linger{Onoff: 1})
}

// HandoffSocketDir creates a private directory for handoff sockets.
func HandoffSocketDir() (string, error) {
	return os.MkdirTemp("", "phttp-handoff-")
}
