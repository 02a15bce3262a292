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
	"time"

	"phttp/internal/core"
	"phttp/internal/httpmsg"
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
	// accepts front-end sessions that hand connections off.
	HandoffSocket string
	// CtrlListen (relaying front-ends) and PeerListen (lateral fetches) are
	// the TCP listen addresses; empty means an ephemeral loopback port (the
	// in-process harness default). phttp-backend sets fixed ports here.
	CtrlListen string
	PeerListen string
	// DiskReportEvery is the control-session disk queue report interval.
	DiskReportEvery time.Duration
}

// cpuGate models the node's single CPU: callers serialize through it for
// the modeled duration. Because time.Sleep overshoots by scheduler
// granularity (often hundreds of microseconds on a busy host — comparable
// to the scaled costs themselves), the gate tracks the overshoot as a debt
// and discounts future charges, so long-run throughput follows the modeled
// costs rather than the host's timer resolution.
type cpuGate struct {
	mu      sync.Mutex
	scale   float64
	enabled bool
	debt    time.Duration
}

func (g *cpuGate) use(m core.Micros) {
	if !g.enabled || m <= 0 {
		return
	}
	want := time.Duration(float64(m) / g.scale * float64(time.Microsecond))
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.debt >= want {
		g.debt -= want
		return
	}
	want -= g.debt
	start := time.Now()
	time.Sleep(want)
	g.debt = time.Since(start) - want
	if g.debt < 0 {
		g.debt = 0
	}
}

// Backend is one running back-end node.
type Backend struct {
	cfg   BackendConfig
	store *DocStore
	cpu   cpuGate

	ctrlLn    net.Listener
	handoffLn *net.UnixListener
	peerLn    net.Listener

	// ctrls holds every live front-end control session — a scale-out
	// tier connects one per front-end — so disk-queue reports (which
	// double as heartbeats) broadcast to all of them.
	ctrlMu sync.Mutex // guards the set and ctrl writes (disk reports)
	ctrls  map[net.Conn]struct{}

	dataMu sync.Mutex // guards relay data conn writes
	data   net.Conn

	connMu sync.Mutex
	conns  map[core.ConnID]*beConn

	// tracked holds every accepted network connection so Close can
	// unblock reader goroutines.
	trackMu sync.Mutex
	tracked map[net.Conn]struct{}

	peersMu sync.Mutex
	peers   map[core.NodeID]*peerPool

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
// are bound immediately (to loopback / the configured UNIX path) and their
// accept loops run until Close.
func NewBackend(cfg BackendConfig) (*Backend, error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.DiskReportEvery <= 0 {
		cfg.DiskReportEvery = 50 * time.Millisecond
	}
	b := &Backend{
		cfg:     cfg,
		store:   NewDocStore(cfg.Catalog, cfg.CacheBytes, cfg.Disk, cfg.TimeScale),
		cpu:     cpuGate{scale: cfg.TimeScale, enabled: cfg.SimulateCPU},
		conns:   make(map[core.ConnID]*beConn),
		ctrls:   make(map[net.Conn]struct{}),
		peers:   make(map[core.NodeID]*peerPool),
		tracked: make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
	if cfg.CtrlListen == "" {
		cfg.CtrlListen = "127.0.0.1:0"
	}
	if cfg.PeerListen == "" {
		cfg.PeerListen = "127.0.0.1:0"
	}
	var err error
	if b.ctrlLn, err = net.Listen("tcp", cfg.CtrlListen); err != nil {
		return nil, fmt.Errorf("cluster: backend %v control listen: %w", cfg.ID, err)
	}
	if b.peerLn, err = net.Listen("tcp", cfg.PeerListen); err != nil {
		b.ctrlLn.Close()
		return nil, fmt.Errorf("cluster: backend %v peer listen: %w", cfg.ID, err)
	}
	addr, err := net.ResolveUnixAddr("unix", cfg.HandoffSocket)
	if err == nil {
		b.handoffLn, err = net.ListenUnix("unix", addr)
	}
	if err != nil {
		b.ctrlLn.Close()
		b.peerLn.Close()
		return nil, fmt.Errorf("cluster: backend %v handoff listen: %w", cfg.ID, err)
	}
	b.wg.Add(4)
	go b.acceptLoop(b.ctrlLn, b.serveCtrlConn)
	go b.acceptLoop(b.handoffLn, b.serveSession)
	go b.acceptLoop(b.peerLn, b.servePeer)
	go b.reportDiskLoop()
	return b, nil
}

// CtrlAddr, PeerAddr and HandoffPath advertise the node's endpoints.
func (b *Backend) CtrlAddr() string    { return b.ctrlLn.Addr().String() }
func (b *Backend) PeerAddr() string    { return b.peerLn.Addr().String() }
func (b *Backend) HandoffPath() string { return b.cfg.HandoffSocket }

// Store exposes the doc store (metrics, tests).
func (b *Backend) Store() *DocStore { return b.store }

// Served returns the number of responses this node has written to clients.
func (b *Backend) Served() int64 { return b.served.Load() }

// Aborted returns the number of connections this node ended itself: clients
// refused for not reading, and responses that could not be written.
func (b *Backend) Aborted() int64 { return b.aborted.Load() }

// SetPeers wires the lateral-fetch clients to the other nodes' peer
// addresses. Must be called before traffic that forwards.
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

// Close shuts the node down and waits for its goroutines.
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
			c.closeOut()
		}
		b.connMu.Unlock()
		b.peersMu.Lock()
		for _, p := range b.peers {
			p.close()
		}
		b.peersMu.Unlock()
	})
	b.wg.Wait()
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

// serveSession serves a front-end's session on the UNIX socket, which
// carries the handed-off descriptors ahead of the lines that use them.
func (b *Backend) serveSession(conn net.Conn) {
	sr := &sessionReader{uc: conn.(*net.UnixConn)}
	b.runSession(conn, bufio.NewReaderSize(sr, ctrlBufBytes), sr)
	sr.close()
}

// serveCtrlConn serves a relaying front-end's TCP connections. The first
// line announces the role: the control session or the data session.
func (b *Backend) serveCtrlConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, ctrlBufBytes)
	hello, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return
	}
	switch hello {
	case "HELLO CTRL\n":
		b.runSession(conn, br, nil)
	case "HELLO DATA\n":
		b.dataMu.Lock()
		b.data = conn
		b.dataMu.Unlock()
		// Held open for relay writes; closed via Close.
		<-b.closed
		conn.Close()
	default:
		conn.Close()
	}
}

// runSession serves one front-end control session until it ends: it joins
// the set that disk-queue reports and refusals go to, and ctrlLoop consumes
// its lines. fds is a UNIX session's received descriptors (nil for TCP).
func (b *Backend) runSession(conn net.Conn, br *bufio.Reader, fds *sessionReader) {
	b.ctrlMu.Lock()
	b.ctrls[conn] = struct{}{}
	b.ctrlMu.Unlock()
	b.ctrlLoop(br, fds)
	b.ctrlMu.Lock()
	delete(b.ctrls, conn)
	b.ctrlMu.Unlock()
	conn.Close()
}

// ctrlLoop consumes control messages from the front-end. A pipelined batch
// arrives as one read; each line is parsed in place, its target resolved
// against the document table while it is still bytes in the read buffer,
// and the result queued on its connection. The connection is woken once
// the lines already read hold nothing more for it, so its serve goroutine
// finds the whole batch. Nothing here waits on a client: a connection that
// cannot take more is refused (see enqueue), and the cost of taking over a
// handed-off connection is charged on its own goroutine (serveConn).
func (b *Backend) ctrlLoop(br *bufio.Reader, fds *sessionReader) {
	var queued *beConn // has entries its serve goroutine was not told about
	for {
		if queued != nil && !lineBuffered(br) {
			queued.q.signal() // the next read may block
			queued = nil
		}
		msg, err := readCtrl(br)
		if err == nil && msg.Kind == kindHandoff {
			err = b.adopt(msg.Conn, fds)
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
			b.connLocked(msg.Conn, true, nil)
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
// descriptor the session received, which travels ahead of its HANDOFF
// line: a HANDOFF that finds none ends the session. A second HANDOFF of a
// live connection leaves the first socket in place.
func (b *Backend) adopt(id core.ConnID, fds *sessionReader) error {
	fd, ok := fds.claim()
	if !ok {
		return errors.New("cluster: HANDOFF with no descriptor")
	}
	f, err := adoptFD(fd)
	if err != nil {
		return err
	}
	b.connMu.Lock()
	defer b.connMu.Unlock()
	if _, dup := b.conns[id]; dup {
		f.Close()
		return nil
	}
	b.connLocked(id, false, f)
	return nil
}

// reportDiskLoop periodically reports the disk queue depth to the
// front-end, as the prototype's control sessions do.
func (b *Backend) reportDiskLoop() {
	defer b.wg.Done()
	t := time.NewTicker(b.cfg.DiskReportEvery)
	defer t.Stop()
	var line []byte
	for {
		select {
		case <-t.C:
			line = appendDiskQ(line[:0], b.store.DiskQueue())
			b.ctrlMu.Lock()
			for conn := range b.ctrls {
				// A dead session drops out of the set when its ctrlLoop
				// exits; a transient write error here is not grounds to
				// silence the other front-ends.
				conn.Write(line)
			}
			b.ctrlMu.Unlock()
		case <-b.closed:
			return
		}
	}
}

// servePeer serves lateral fetches from another back-end: plain HTTP over
// a persistent connection.
func (b *Backend) servePeer(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriterSize(conn, 32<<10)
	var req httpmsg.Request
	var hb [128]byte
	for {
		if err := httpmsg.ReadRequestInto(br, nil, &req); err != nil {
			return
		}
		// The remote side of a lateral fetch: per-request work plus the
		// forwarding overhead, content from cache or disk.
		b.cpu.use(b.cfg.Costs.PerRequest + b.cfg.Costs.ForwardPerRequest)
		dc := b.store.docs[core.Target(req.Target)]
		if dc == nil {
			body := "Not Found\n"
			bw.Write(httpmsg.AppendResponseHead(hb[:0], "HTTP/1.1", 404, int64(len(body)), true))
			bw.WriteString(body)
			if err := bw.Flush(); err != nil {
				return
			}
			continue
		}
		if !b.store.cached(dc) {
			b.store.read(dc)
		}
		if _, err := bw.Write(httpmsg.AppendResponseHead(hb[:0], "HTTP/1.1", 200, dc.size, true)); err != nil {
			return
		}
		if err := writePattern(bw, dc.pattern(), dc.size); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// peerPool multiplexes lateral fetches over a few persistent connections to
// one peer back-end, so concurrent forwarded requests do not serialize
// behind a single connection (the paper's NFS transport likewise carried
// concurrent reads).
type peerPool struct {
	clients []*peerClient
	free    chan *peerClient
}

// peerPoolSize is the number of persistent connections per peer pair.
const peerPoolSize = 4

func newPeerPool(addr string) *peerPool {
	p := &peerPool{free: make(chan *peerClient, peerPoolSize)}
	for i := 0; i < peerPoolSize; i++ {
		c := newPeerClient(addr)
		p.clients = append(p.clients, c)
		p.free <- c
	}
	return p
}

// fetch checks a connection out of the pool; it is returned when the body
// is closed (or immediately on error).
func (p *peerPool) fetch(t core.Target) (int64, io.ReadCloser, error) {
	c := <-p.free
	size, body, err := c.fetch(t)
	if err != nil {
		p.free <- c
		return 0, nil, err
	}
	return size, &pooledBody{ReadCloser: body, pool: p, client: c}, nil
}

func (p *peerPool) close() {
	for _, c := range p.clients {
		c.close()
	}
}

// pooledBody returns the underlying client to the pool on Close.
type pooledBody struct {
	io.ReadCloser
	pool   *peerPool
	client *peerClient
}

func (b *pooledBody) Close() error {
	err := b.ReadCloser.Close()
	b.pool.free <- b.client
	return err
}

// peerClient is a lateral-fetch client holding one persistent connection to
// a peer back-end (reconnecting on failure).
type peerClient struct {
	addr string
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte // request serialization scratch
}

func newPeerClient(addr string) *peerClient { return &peerClient{addr: addr} }

// fetch requests target from the peer and returns its size and a body
// reader that must be fully consumed and closed before the next fetch. The
// returned reader is only valid while the caller holds it (the client is
// locked until Close).
func (p *peerClient) fetch(t core.Target) (int64, io.ReadCloser, error) {
	p.mu.Lock() // released by the returned body's Close
	size, body, err := p.fetchLocked(t)
	if err != nil {
		p.mu.Unlock()
		return 0, nil, err
	}
	return size, body, nil
}

func (p *peerClient) fetchLocked(t core.Target) (int64, io.ReadCloser, error) {
	for attempt := 0; attempt < 2; attempt++ {
		if p.conn == nil {
			conn, err := net.Dial("tcp", p.addr)
			if err != nil {
				return 0, nil, err
			}
			p.conn = conn
			p.br = bufio.NewReaderSize(conn, 32<<10)
		}
		req := httpmsg.Request{
			Method: "GET", Target: string(t), Proto: "HTTP/1.1",
			Headers: []httpmsg.Header{{Name: "Host", Value: "peer"}},
		}
		if _, err := req.WriteTo(p.conn); err != nil {
			p.reset()
			continue
		}
		resp, err := httpmsg.ReadResponse(p.br)
		if err != nil {
			p.reset()
			continue
		}
		if resp.Status != 200 {
			// Drain the error body to keep the connection usable.
			io.CopyN(io.Discard, p.br, resp.ContentLength)
			return 0, nil, fmt.Errorf("cluster: peer fetch %q: status %d", t, resp.Status)
		}
		return resp.ContentLength, &peerBody{p: p, r: io.LimitReader(p.br, resp.ContentLength)}, nil
	}
	return 0, nil, fmt.Errorf("cluster: peer %s unreachable", p.addr)
}

func (p *peerClient) reset() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
		p.br = nil
	}
}

func (p *peerClient) close() {
	p.mu.Lock()
	p.reset()
	p.mu.Unlock()
}

// peerBody hands the peer connection back (unlocking the client) once the
// body has been consumed.
type peerBody struct {
	p *peerClient
	r io.Reader
}

func (b *peerBody) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *peerBody) Close() error {
	// Drain any remainder so the next fetch starts aligned.
	io.Copy(io.Discard, b.r)
	b.p.mu.Unlock()
	return nil
}
