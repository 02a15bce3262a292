package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"phttp/internal/core"
	"phttp/internal/server"
)

// BackendConfig parameterizes one back-end node.
type BackendConfig struct {
	// ID is the node's cluster-wide identity.
	ID core.NodeID
	// Catalog maps every servable target to its size.
	Catalog map[core.Target]int64
	// CacheBytes is the node's file cache budget.
	CacheBytes int64
	// Disk is the simulated disk model.
	Disk server.DiskParams
	// Costs is the CPU cost model applied when SimulateCPU is set.
	Costs server.Costs
	// SimulateCPU serializes request processing through a single-CPU gate
	// charging the paper's Apache/Flash costs, so the prototype node
	// behaves like the testbed's 300 MHz machines rather than a modern
	// multicore host.
	SimulateCPU bool
	// TimeScale divides all simulated latencies (CPU and disk).
	TimeScale float64
	// HandoffSocket is the path of the UNIX socket on which the node
	// accepts front-end sessions that hand connections off. Lateral
	// fetches from the other back-ends arrive on a UNIX socket beside it,
	// at HandoffSocket+".peer" (PeerAddr).
	HandoffSocket string
	// CtrlListen is the TCP listen address for relaying front-ends; empty
	// means an ephemeral loopback port (the in-process harness default).
	// phttp-backend sets a fixed port here.
	CtrlListen string
}

// peerSocketSuffix turns a node's handoff socket path into its peer
// socket path.
const peerSocketSuffix = ".peer"

// gate models one of a node's serial resources, its CPU or its disk:
// callers take turns holding it for a modelled time divided by the time
// scale. A timer overshoots by the host's timer granularity (often
// hundreds of microseconds on a busy host, comparable to the scaled costs
// themselves), so the gate keeps the overshoot as a debt and discounts the
// next holds by it: over many holds the resource is busy for the modelled
// time, not for the modelled time plus one overshoot per hold. Closing
// done ends every hold and every wait for one, so a node that closes
// does not wait out its modelled reads.
type gate struct {
	scale float64         // time scale divisor; zero when the resource is not modelled
	done  <-chan struct{} // the node's closing; nil for a gate that never closes
	turn  chan struct{}   // holds one token while the gate is held
	debt  time.Duration   // guarded by holding the gate
	asked atomic.Int64    // the modelled µs of every hold asked for
}

func newGate(scale float64, done <-chan struct{}) gate {
	return gate{scale: scale, done: done, turn: make(chan struct{}, 1)}
}

// duration is modelled time m on the wall clock: zero when the gate
// models nothing.
func (g *gate) duration(m core.Micros) time.Duration {
	if g.scale == 0 || m <= 0 {
		return 0
	}
	return time.Duration(float64(m) / g.scale * float64(time.Microsecond))
}

// use holds the gate for modelled time m, or until done closes. A zero
// time returns at once, without taking the gate.
func (g *gate) use(m core.Micros) {
	want := g.duration(m)
	if want <= 0 {
		return
	}
	g.asked.Add(int64(m))
	select {
	case g.turn <- struct{}{}:
	case <-g.done:
		return
	}
	defer func() { <-g.turn }()
	if g.debt >= want {
		g.debt -= want
		return
	}
	want -= g.debt
	start := time.Now()
	t := time.NewTimer(want)
	select {
	case <-t.C:
		g.debt = max(time.Since(start)-want, 0)
	case <-g.done:
		t.Stop()
	}
}

// Backend is one running back-end node.
type Backend struct {
	cfg   BackendConfig
	store *DocStore
	cpu   gate // the node's single CPU, modelled when SimulateCPU is set

	ctrlLn    net.Listener
	handoffLn *net.UnixListener
	peerLn    *net.UnixListener

	// ctrls holds every live front-end control session — a scale-out
	// tier connects one per front-end — so disk-queue reports (which
	// double as heartbeats) broadcast to all of them.
	ctrlMu sync.Mutex // guards the set
	ctrls  map[*session]struct{}

	connMu sync.Mutex
	conns  map[core.ConnID]*beConn
	// servers serves each connection record on a reused worker
	// (connWorker).
	servers *workers[*beConn]

	// tracked holds every accepted network connection so Close can
	// unblock reader goroutines.
	trackMu sync.Mutex
	tracked map[net.Conn]struct{}

	peersMu sync.Mutex
	peers   map[core.NodeID]peerPool

	// served counts the 200 responses written to clients. It is raised
	// before a response's bytes can go out and lowered again if the write
	// fails: a client that has read a complete response can then never
	// observe a Served() count that has not caught up yet (drivers assert
	// the count the moment the load generator returns).
	served atomic.Int64
	// aborted counts the connections this node ended itself: a client
	// refused for not reading, a response that could not be written.
	aborted atomic.Int64

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// NewBackend starts a back-end node: control, handoff and peer listeners
// are bound immediately (to loopback / the configured UNIX paths) and their
// accept loops run until Close, which also removes the socket files.
func NewBackend(cfg BackendConfig) (*Backend, error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	closed := make(chan struct{})
	b := &Backend{
		cfg:     cfg,
		store:   newDocStore(cfg.Catalog, cfg.CacheBytes, cfg.Disk, cfg.TimeScale, closed),
		conns:   make(map[core.ConnID]*beConn),
		ctrls:   make(map[*session]struct{}),
		peers:   make(map[core.NodeID]peerPool),
		tracked: make(map[net.Conn]struct{}),
		closed:  closed,
	}
	if cfg.SimulateCPU {
		b.cpu = newGate(cfg.TimeScale, closed)
	}
	if cfg.CtrlListen == "" {
		cfg.CtrlListen = "127.0.0.1:0"
	}
	var err error
	if b.ctrlLn, err = net.Listen("tcp", cfg.CtrlListen); err != nil {
		return nil, fmt.Errorf("cluster: backend %v control listen: %w", cfg.ID, err)
	}
	if b.handoffLn, err = listenUnix(cfg.HandoffSocket); err != nil {
		b.ctrlLn.Close()
		return nil, fmt.Errorf("cluster: backend %v handoff listen: %w", cfg.ID, err)
	}
	if b.peerLn, err = listenUnix(cfg.HandoffSocket + peerSocketSuffix); err != nil {
		b.ctrlLn.Close()
		b.handoffLn.Close()
		return nil, fmt.Errorf("cluster: backend %v peer listen: %w", cfg.ID, err)
	}
	b.servers = newWorkers(b.connWorker, closed, &b.wg)
	b.wg.Add(4)
	go b.acceptLoop(b.ctrlLn, b.serveSession)
	go b.acceptLoop(b.handoffLn, b.serveSession)
	go b.acceptLoop(b.peerLn, b.servePeer)
	go b.reportDiskLoop()
	return b, nil
}

// listenUnix listens on a UNIX stream socket at path.
func listenUnix(path string) (*net.UnixListener, error) {
	addr, err := net.ResolveUnixAddr("unix", path)
	if err != nil {
		return nil, err
	}
	return net.ListenUnix("unix", addr)
}

// CtrlAddr, PeerAddr and HandoffPath advertise the node's endpoints:
// PeerAddr is the path of the UNIX socket that serves lateral fetches.
func (b *Backend) CtrlAddr() string    { return b.ctrlLn.Addr().String() }
func (b *Backend) PeerAddr() string    { return b.cfg.HandoffSocket + peerSocketSuffix }
func (b *Backend) HandoffPath() string { return b.cfg.HandoffSocket }

// Store exposes the doc store (metrics, tests).
func (b *Backend) Store() *DocStore { return b.store }

// Served returns the number of responses this node has written to clients.
func (b *Backend) Served() int64 { return b.served.Load() }

// Aborted returns the number of connections this node ended itself: clients
// refused for not reading, and responses that could not be written.
func (b *Backend) Aborted() int64 { return b.aborted.Load() }

// SetPeers wires the lateral-fetch clients to the other nodes' peer
// socket paths (their PeerAddr). Must be called before traffic that
// forwards.
func (b *Backend) SetPeers(addrs map[core.NodeID]string) {
	b.peersMu.Lock()
	defer b.peersMu.Unlock()
	for id, addr := range addrs {
		if id == b.cfg.ID {
			continue
		}
		b.peers[id] = newPeerPool(addr)
	}
}

// track registers an accepted connection for teardown; it reports false if
// the node is already closing.
func (b *Backend) track(c net.Conn) bool {
	b.trackMu.Lock()
	defer b.trackMu.Unlock()
	select {
	case <-b.closed:
		c.Close()
		return false
	default:
	}
	b.tracked[c] = struct{}{}
	return true
}

func (b *Backend) untrack(c net.Conn) {
	b.trackMu.Lock()
	delete(b.tracked, c)
	b.trackMu.Unlock()
}

// Close shuts the node down and waits for its goroutines. It shuts every
// connection's queue and leaves closing the client sockets to their
// workers, which it waits for.
func (b *Backend) Close() {
	b.closeMu.Do(func() {
		close(b.closed)
		b.ctrlLn.Close()
		b.peerLn.Close()
		b.handoffLn.Close()
		b.trackMu.Lock()
		for c := range b.tracked {
			c.Close()
		}
		b.trackMu.Unlock()
		b.connMu.Lock()
		for _, c := range b.conns {
			// A write waiting wakes, its deadline passed. The client is
			// left to the front-end, which resets it once the node is Down.
			c.q.shutdown()
			c.clock()
		}
		b.connMu.Unlock()
		b.peersMu.Lock()
		for _, p := range b.peers {
			p.close()
		}
		b.peersMu.Unlock()
	})
	b.wg.Wait()
	b.store.releasePages()
}

// acceptLoop accepts connections on ln until it closes and serves each on a
// goroutine of its own.
func (b *Backend) acceptLoop(ln net.Listener, serve func(net.Conn)) {
	defer b.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !b.track(conn) {
			return
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer b.untrack(conn)
			serve(conn)
		}()
	}
}

// session is one front-end control session: its conn and the lock that
// keeps what the node writes on it — DISKQ, CLOSE, relayed RESP frames —
// whole.
type session struct {
	mu   sync.Mutex
	conn net.Conn
}

func (s *session) write(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Write(p)
}

// serveSession serves one front-end control session until it ends: it joins
// the set that disk-queue reports go to, and ctrlLoop consumes its lines. A
// session on the UNIX socket carries the handed-off descriptors ahead of the
// lines that use them, and is read only with recvmsg; a relaying front-end's
// is TCP.
func (b *Backend) serveSession(conn net.Conn) {
	s := &session{conn: conn}
	var r io.Reader = conn
	var fds *sessionReader
	if uc, ok := conn.(*net.UnixConn); ok {
		fds = &sessionReader{uc: uc}
		defer fds.close()
		r = fds
	}
	b.ctrlMu.Lock()
	b.ctrls[s] = struct{}{}
	b.ctrlMu.Unlock()
	b.ctrlLoop(bufio.NewReaderSize(r, ctrlBufBytes), fds, s)
	b.ctrlMu.Lock()
	delete(b.ctrls, s)
	b.ctrlMu.Unlock()
	conn.Close()
	b.endSession(s)
}

// endSession finishes every connection whose record session s made, as
// its CLOSE would: the front-end that would send one is gone, or has a new
// session (AddBackend) and has reset the connections it handed off on the
// old one. A connection's queued responses are written, then its worker
// closes its descriptor, and its client sees the end of the stream.
func (b *Backend) endSession(s *session) {
	var ended []*beConn
	b.connMu.Lock()
	for _, c := range b.conns {
		if c.from == s {
			b.pushLocked(c, beReq{kind: kindClose})
			ended = append(ended, c)
		}
	}
	b.connMu.Unlock()
	for _, c := range ended {
		c.q.signal()
	}
}

// ctrlLoop consumes control messages from the front-end. A pipelined batch
// arrives as one read; each line is parsed in place, its target resolved
// against the document table while it is still bytes in the read buffer,
// and the result queued on its connection. The connection is woken once
// the lines already read hold nothing more for it, so its serve goroutine
// finds the whole batch. Nothing here waits on a client: a connection that
// cannot take more is refused (see enqueue), and the cost of taking over a
// handed-off connection is charged on its own goroutine (serveConn). A
// relayed connection answers on s, the session its RELAY line came on.
func (b *Backend) ctrlLoop(br *bufio.Reader, fds *sessionReader, s *session) {
	var queued *beConn // has entries its serve goroutine was not told about
	for {
		if queued != nil && !lineBuffered(br) {
			queued.q.signal() // the next read may block
			queued = nil
		}
		msg, err := readCtrl(br)
		if err == nil && msg.Kind == kindHandoff {
			err = b.adopt(msg.Conn, fds, s)
		}
		if err != nil {
			if queued != nil {
				queued.q.signal()
			}
			return
		}
		var c *beConn
		switch msg.Kind {
		case kindReq:
			dc := b.store.lookup(msg.Target)
			if dc == nil {
				dc = &doc{target: core.Target(msg.Target), missing: true}
			}
			c = b.enqueue(msg.Conn, beReq{
				kind: kindReq, proto: msg.Proto, keep: msg.Keep,
				seq: msg.Seq, remote: msg.Remote, doc: dc,
			})
		case kindRelay:
			b.connMu.Lock()
			b.connLocked(msg.Conn, s, -1)
			b.connMu.Unlock()
			continue
		case kindClose:
			c = b.enqueue(msg.Conn, beReq{kind: kindClose})
		default:
			continue
		}
		if queued != nil && queued != c {
			queued.q.signal()
		}
		queued = c
	}
}

// lineBuffered reports whether br already holds a complete line, i.e.
// whether the next readCtrl returns without reading from the connection.
func lineBuffered(br *bufio.Reader) bool {
	buffered, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(buffered, '\n') >= 0
}

// adopt creates handed-off connection id's record around the oldest
// descriptor session s received, which travels ahead of its HANDOFF line:
// a HANDOFF that finds none ends the session. The descriptor stays raw
// (see beConn): adopting it is one fcntl and no allocation. A second
// HANDOFF of a live connection leaves the first socket in place.
func (b *Backend) adopt(id core.ConnID, fds *sessionReader, s *session) error {
	fd, ok := fds.claim()
	if !ok {
		return errors.New("cluster: HANDOFF with no descriptor")
	}
	if err := adoptRaw(fd); err != nil {
		return err
	}
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if _, dup := b.conns[id]; dup {
		syscall.Close(fd)
		return nil
	}
	b.connLocked(id, s, fd)
	return nil
}

// diskReportEvery is the control-session disk queue report interval; each
// report doubles as the node's heartbeat.
const diskReportEvery = 50 * time.Millisecond

// reportDiskLoop periodically reports the disk queue depth to the
// front-end, as the prototype's control sessions do.
func (b *Backend) reportDiskLoop() {
	defer b.wg.Done()
	t := time.NewTicker(diskReportEvery)
	defer t.Stop()
	var line []byte
	for {
		select {
		case <-t.C:
			line = appendDiskQ(line[:0], b.store.DiskQueue())
			b.ctrlMu.Lock()
			for s := range b.ctrls {
				// A dead session drops out of the set when its ctrlLoop
				// exits; a transient write error here is not grounds to
				// silence the other front-ends.
				s.write(line)
			}
			b.ctrlMu.Unlock()
		case <-b.closed:
			return
		}
	}
}

// servePeer serves lateral fetches from another back-end over a persistent
// connection: a FETCH line in, SIZE and the body or MISS out, a large body
// from its content page through the session's pipe, any other through a
// pooled chunk.
func (b *Backend) servePeer(conn net.Conn) {
	defer conn.Close()
	var out peerOut
	defer out.close()
	br := bufio.NewReaderSize(conn, ctrlBufBytes)
	var line []byte
	for {
		msg, err := readCtrl(br)
		if err != nil || msg.Kind != kindFetch {
			return
		}
		// The remote side of a lateral fetch: per-request work plus the
		// forwarding overhead, content from cache or disk.
		b.cpu.use(b.cfg.Costs.PerRequest + b.cfg.Costs.ForwardPerRequest)
		dc := b.store.lookup(msg.Target)
		var size int64
		if dc == nil {
			line = appendMiss(line[:0])
		} else {
			if !b.store.cached(dc) {
				b.store.read(dc)
			}
			size = dc.size
			line = appendSize(line[:0], size)
			if size >= pageBodyMin {
				if sent, err := out.send(conn, line, b.store.page(dc), size); sent {
					if err != nil {
						return
					}
					continue
				}
			}
		}
		cw := newChunkWriter(conn, int64(len(line))+size)
		cw.Write(line)
		if dc != nil {
			err = cw.writeContent(dc.target, size)
		}
		if err == nil {
			err = cw.Flush()
		}
		cw.release()
		if err != nil {
			return
		}
	}
}

// peerPool is a fixed set of persistent lateral-fetch connections to one
// peer back-end, one fetch in flight on each, so concurrent forwarded
// requests do not serialize behind one connection (the paper's NFS
// transport likewise carried concurrent reads). A fetch takes a connection
// out of the channel and puts it back once the body is relayed; a body
// that fits the response chunk is read whole before the client is written
// to, so a slow client holds a connection only while a larger body streams.
type peerPool chan *peerConn

// peerPoolSize is the number of persistent connections per peer pair.
const peerPoolSize = 4

func newPeerPool(addr string) peerPool {
	p := make(peerPool, peerPoolSize)
	for range peerPoolSize {
		p <- &peerConn{addr: addr}
	}
	return p
}

// close closes every connection of the pool, once the fetches in flight on
// them are done. The records stay in the pool and redial on their next
// fetch.
func (p peerPool) close() {
	var all [peerPoolSize]*peerConn
	for i := range all {
		all[i] = <-p
		all[i].reset()
	}
	for _, pc := range all {
		p <- pc
	}
}

// peerConn is one persistent connection to a peer back-end, dialled on its
// first fetch and redialled after a failure.
type peerConn struct {
	addr string
	conn net.Conn
	rc   syscall.RawConn // conn's, taken once per dial, for splicing bodies
	br   *bufio.Reader
	line []byte // the FETCH line
	// body is the current fetch's body: the next body.N bytes of br.
	body io.LimitedReader
}

// fetch asks the peer for target and returns the size its reply announced;
// the body then waits in pc.body. A connection that fails is redialled and
// the fetch tried once more. MISS is an error.
func (pc *peerConn) fetch(target core.Target) (int64, error) {
	if pc.body.N > 0 { // the last body was not read to its end: out of step
		pc.reset()
	}
	for attempt := 0; attempt < 2; attempt++ {
		if pc.conn == nil {
			conn, err := net.Dial("unix", pc.addr)
			if err != nil {
				return 0, err
			}
			// The reader holds the reply line and what came with it; a
			// body is read past it, or spliced (pages_linux.go).
			pc.conn, pc.br = conn, bufio.NewReaderSize(conn, peerBufBytes)
			pc.rawConn()
		}
		pc.line = appendFetch(pc.line[:0], target)
		if _, err := pc.conn.Write(pc.line); err != nil {
			pc.reset()
			continue
		}
		msg, err := readCtrl(pc.br)
		switch {
		case err == nil && msg.Kind == kindSize:
			pc.body = io.LimitedReader{R: pc.br, N: msg.Size}
			return msg.Size, nil
		case err == nil && msg.Kind == kindMiss:
			return 0, fmt.Errorf("cluster: peer %s does not hold %q", pc.addr, target)
		}
		pc.reset()
	}
	return 0, fmt.Errorf("cluster: peer %s unreachable", pc.addr)
}

func (pc *peerConn) reset() {
	if pc.conn != nil {
		pc.conn.Close()
	}
	pc.conn, pc.rc, pc.br, pc.body = nil, nil, nil, io.LimitedReader{}
}

// peerBufBytes sizes a peer connection's reader: a SIZE or MISS line with
// room to spare.
const peerBufBytes = 512
