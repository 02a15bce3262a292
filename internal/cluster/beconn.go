package cluster

import (
	"errors"
	"io"
	"os"
	"sync"
	"syscall"
	"time"

	"phttp/internal/core"
	"phttp/internal/httpmsg"
)

// A back-end's view of one client connection: the queue the control loop
// feeds, the goroutine that drains it in order, and the writer that turns
// what one drain produced into one write on the client socket.

// beReq is one queued unit of a connection's work: a tagged request, or the
// CLOSE that ends the connection once the requests before it are answered.
// The target is already resolved to its doc (see DocStore.lookup).
type beReq struct {
	kind   ctrlKind // kindReq or kindClose
	proto  protoVer
	keep   bool
	seq    int
	remote core.NodeID // NoNode: serve locally
	doc    *doc
}

// maxPending is how far a client may pipeline ahead of the responses it is
// not taking. Depth alone is no offence — a burst of any depth from a client
// that reads is queued and served — but a connection with maxPending
// requests waiting whose client accepts nothing for stallGrace is refused
// (closed): its client is not reading, and what it sends would otherwise
// grow a queue or, as it once did, block the control loop that every
// connection shares. Only such a connection's writes are timed (see
// beConn.clock): a write with a shallow queue behind it waits with no
// deadline and so leaves no timer behind.
const (
	maxPending = 256
	stallGrace = time.Second
)

// maxQueued bounds the queue outright. It is what refuses an open-loop
// client that reads but asks faster than the node serves, and the bound on
// a relayed connection, whose frames go to its front-end's session and so
// say nothing about its own client.
const maxQueued = 16 * maxPending

// reqQueue is a connection's request queue: a ring that starts empty and
// grows by doubling, a mutex, and a one-slot wake channel. push never
// blocks. One consumer.
type reqQueue struct {
	mu   sync.Mutex
	buf  []beReq // ring; len is 0 or a power of two
	head int
	n    int
	shut bool
	// wake holds a token whenever something may have changed since the
	// consumer last looked — entries queued, the queue shut; a consumer
	// that found nothing to do waits on it. Spurious tokens are harmless.
	wake chan struct{}
}

func (q *reqQueue) signal() { wake(q.wake) }

// push appends r and returns the queue's depth with it, or 0 when it was not
// accepted: the queue is shut or holds maxQueued entries. It does not wake
// the consumer: the producer signals once it has queued everything it has
// for the connection, so that a batch is drained — and answered — as one.
func (q *reqQueue) push(r beReq) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.shut || q.n >= maxQueued {
		return 0
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
	return q.n
}

// depth returns how many entries wait, and whether the queue is shut.
func (q *reqQueue) depth() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n, q.shut
}

func (q *reqQueue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]beReq, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

// pop removes the oldest entry. ok is false when the queue is empty; shut
// reports that the connection was refused or failed (see shutdown).
func (q *reqQueue) pop() (r beReq, ok, shut bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return beReq{}, false, q.shut
	}
	r = q.buf[q.head]
	q.buf[q.head] = beReq{} // drop the doc pointer
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r, true, false
}

// shutdown drops the queued requests and refuses further pushes; a queued
// CLOSE, the last thing the front-end sends, stays for the serve goroutine
// to retire the connection by. It reports whether this call did it.
func (q *reqQueue) shutdown() bool {
	q.mu.Lock()
	first := !q.shut
	q.shut = true
	closing := q.n > 0 && q.buf[(q.head+q.n-1)&(len(q.buf)-1)].kind == kindClose
	clear(q.buf)
	q.head, q.n = 0, 0
	if closing {
		q.buf[0].kind, q.n = kindClose, 1
	}
	q.mu.Unlock()
	q.signal()
	return first
}

// reset readies the queue of a retired connection for the next one, keeping
// the ring's storage unless a deep burst grew it.
func (q *reqQueue) reset() {
	q.mu.Lock()
	clear(q.buf)
	if len(q.buf) > maxPending {
		q.buf = nil
	}
	q.head, q.n, q.shut = 0, 0, false
	q.mu.Unlock()
	select {
	case <-q.wake:
	default:
	}
}

// beConn is one client connection owned by this back-end (after handoff) or
// relayed through the front-end.
//
// Lifetime: created by the HANDOFF that brings its client socket (or, for a
// relayed connection, the first control message that names it), with its
// serve goroutine; retired by that goroutine when the connection's CLOSE —
// or the one its session's end queues (endSession) — has been processed,
// and only then returned to beConnPool. Every other goroutine reaches a
// beConn through Backend.conns under connMu and lets go of it before unlocking — except
// to signal its queue, which is harmless on a record that has moved on —
// so a recycled record is never written to under its old identity. A connection
// that failed or was refused stays in the table, shut, until its CLOSE is
// processed (see shutdown, enqueue), so that requests in flight for it are
// dropped instead of conjuring a fresh record nothing will ever serve.
//
// A handed-off client socket is the descriptor the session brought,
// written raw by the connection's worker through the worker's clientSock,
// which waits in the worker's epoll set only while the socket is full.
// One rule keeps the descriptor's number from going to another socket
// under a goroutine that still uses it, as on the front-end: only the
// worker closes it (closeSocket, under outMu). Any other goroutine only
// shuts the connection down (abort) or wakes a waiting write with a
// deadline (clock), under outMu, and its writes take no lock.
type beConn struct {
	id core.ConnID
	// sess is a relayed connection's session, the one its RELAY line came
	// on and its responses go back on; nil for a handed-off connection.
	sess *session
	// from is the session whose HANDOFF or RELAY line made the record;
	// when it ends, so does the connection (Backend.endSession).
	from *session
	q    reqQueue
	// fd is the handed-off client socket's descriptor; -1 for a relayed
	// connection and once the worker has closed it.
	fd    int
	outMu sync.Mutex
	// sock is the serving worker's, with fd attached; nil before attach
	// and after close. The worker sets it under outMu and reads it
	// without.
	sock *clientSock
}

var beConnPool = sync.Pool{New: func() any {
	return &beConn{q: reqQueue{wake: make(chan struct{}, 1)}, fd: -1}
}}

func shutBoth(fd int)  { syscall.Shutdown(fd, syscall.SHUT_RDWR) }
func shutWrite(fd int) { syscall.Shutdown(fd, syscall.SHUT_WR) }

// attach puts the handed-off socket on the worker's clientSock. A set that
// cannot be opened leaves the connection without a socket to answer on.
func (c *beConn) attach(s *clientSock) error {
	if err := s.attach(c.fd, false); err != nil {
		return err
	}
	c.outMu.Lock()
	defer c.outMu.Unlock()
	c.sock, s.be = s, c
	return nil
}

// hasSocket reports whether the connection has a client socket to answer
// on: it was handed off and attached, and is not closed. Worker only.
func (c *beConn) hasSocket() bool { return c.sock != nil }

// closeSocket closes the handed-off descriptor, if the connection still
// has one. Worker only: see beConn.
func (c *beConn) closeSocket() {
	if c.fd < 0 {
		return
	}
	c.outMu.Lock()
	defer c.outMu.Unlock()
	if c.sock != nil {
		c.sock.close()
	} else {
		syscall.Close(c.fd)
	}
	c.fd, c.sock = -1, nil
}

// endStream ends the response stream after the connection's last response
// (to a request that said so: HTTP/1.0 without keep-alive, Connection:
// close): the client reads the end of the stream behind the body, as from
// any server, and the front-end, still reading the connection, tears it
// down when the client has closed too. Closing first also keeps the
// connection's TIME_WAIT on the server's side: were the client first, each
// of its connections would hold an ephemeral port until Linux lends it out
// again, a second or more later, and one client host opening more
// connections a second than it has ports to turn over (seen from about
// 14 000 a second) spends the rest of every second searching in connect.
// Worker only.
func (c *beConn) endStream() { shutWrite(c.fd) }

// clock sets the deadline of the worker's set for a write of c's that
// waits, if c is attached: stallGrace from now while maxPending or more
// requests wait, none while fewer, and one passed once the queue is shut.
// The worker calls it as each wait starts (clientSock.run), so that every
// wait has stallGrace to move a byte; the control loop when a push takes
// the queue to maxPending, and Backend.Close, for a write waiting already.
func (c *beConn) clock() {
	c.outMu.Lock()
	defer c.outMu.Unlock()
	if c.sock == nil {
		return
	}
	var t time.Time
	switch n, shut := c.q.depth(); {
	case shut:
		t = longAgo
	case n >= maxPending:
		t = time.Now().Add(stallGrace)
	}
	c.sock.deadline(t)
}

// goesOn tells a write whose wait timed out whether it goes on: not once
// the queue is shut, and, while maxPending or more requests wait, only if
// it moved bytes. Its next wait is timed afresh (clock).
func (c *beConn) goesOn(moved bool) bool {
	n, shut := c.q.depth()
	return !shut && (moved || n < maxPending)
}

// Write puts response bytes on the client socket. A slow client costs only
// itself: with fewer than maxPending requests waiting a write may take as
// long as it takes. With more, every attempt gets stallGrace to move a
// byte, and one that moves none fails — the connection's serve goroutine
// then gives it up.
//
//phttp:hotpath
func (c *beConn) Write(p []byte) (int, error) {
	done := 0
	for {
		n, err := c.sock.Write(p[done:])
		done += n
		if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) || !c.goesOn(n > 0) {
			return done, err
		}
	}
}

var errNoClientSocket = errors.New("cluster: response with no client socket")

// abort shuts the connection's queue and the connection itself down under
// whoever is using it: a write waiting for a client that does not read
// fails out. Shutting the connection down, not closing this process's
// descriptor, is what ends it, as the front-end holds another on the same
// socket: the client sees the end of the stream, and the front-end's read
// of the same connection ends, so it sends the CLOSE that clears the
// back-end's record. It reports whether this call did it; later ones change
// nothing.
func (c *beConn) abort() bool {
	if !c.q.shutdown() {
		return false
	}
	c.outMu.Lock()
	defer c.outMu.Unlock()
	if c.fd >= 0 {
		shutBoth(c.fd)
	}
	return true
}

// giveUp aborts a connection whose response could not be written: its
// client learns it from the socket. A relayed connection's frame fails only
// with its session, which the front-end sees fail too: it suspects the node
// and re-dispatches what it was waiting for, so nothing is said here. Called by the serve goroutine, which then pops the CLOSE
// that retires the record, if one is queued (see shutdown).
func (b *Backend) giveUp(c *beConn) {
	if c.abort() {
		b.aborted.Add(1)
	}
}

// tellClosed reports on session s that this node has refused relayed
// connection id, which has no socket here to close: the front-end that owns
// it closes the client and forgets the requests it was still waiting on.
func tellClosed(s *session, id core.ConnID) {
	var lb [32]byte
	s.write(appendClose(lb[:0], id))
}

// enqueue hands one REQ or CLOSE to connection id, creating the record on
// first reference, and returns the record for the caller to signal (only
// to signal: see beConn). It never blocks on a client: a connection that
// cannot take more is refused (see reqQueue.push).
func (b *Backend) enqueue(id core.ConnID, r beReq) *beConn {
	b.connMu.Lock()
	c := b.connLocked(id, nil, -1)
	refused := b.pushLocked(c, r)
	b.connMu.Unlock()
	if refused != nil {
		tellClosed(refused, id)
	}
	return c
}

// pushLocked queues r on c, refusing c if its queue takes no more, and
// returns the session to tell of a relayed connection's refusal, or nil.
// Callers hold connMu.
func (b *Backend) pushLocked(c *beConn, r beReq) (refused *session) {
	switch c.q.push(r) {
	case 0:
		if c.abort() {
			b.aborted.Add(1)
			refused = c.sess
		}
		if r.kind == kindClose {
			// The front-end is done with a connection we already gave up on:
			// its serve goroutine has left or is leaving without retiring it.
			delete(b.conns, c.id)
		}
	case maxPending:
		c.clock() // a write waiting now is on the clock
	}
	return refused
}

// connLocked returns the connection record, creating it (and starting it
// on a worker) on first reference: made by session from (nil for none),
// handed off with client socket descriptor fd, or relayed on from when fd
// is -1. Callers hold connMu.
func (b *Backend) connLocked(id core.ConnID, from *session, fd int) *beConn {
	if c, ok := b.conns[id]; ok {
		return c
	}
	c := beConnPool.Get().(*beConn)
	c.id, c.from, c.fd = id, from, fd
	if fd < 0 {
		c.sess = from
	}
	b.conns[id] = c
	b.servers.start(c)
	return c
}

// connWorker is one back-end worker: it serves connection c, then each
// next hands it, until it retires. Its clientSock carries every handed-off
// connection it serves, and its pipe their large bodies (pages_linux.go).
func (b *Backend) connWorker(c *beConn, next func() (*beConn, bool)) {
	sock := new(clientSock)
	defer sock.release()
	pipe := new(bodyPipe)
	defer pipe.close()
	for ok := true; ok; c, ok = next() {
		b.serveConn(c, sock, pipe)
	}
}

// retire removes a connection whose CLOSE has been processed (or whose node
// is shutting down) and recycles its record.
func (b *Backend) retire(c *beConn) {
	c.closeSocket()
	b.connMu.Lock()
	if b.conns[c.id] == c {
		delete(b.conns, c.id)
	}
	b.connMu.Unlock()
	// Nobody else can reach c any more.
	c.q.reset()
	c.id, c.sess, c.from = 0, nil, nil
	beConnPool.Put(c)
}

// serveConn processes one connection's request queue in order, writing
// responses to the client socket (or relay frames to the front-end). It
// waits to be woken before each drain — the first too: the control loop
// wakes a connection once its batch is queued whole. Each time the queue
// runs dry it flushes what the drain produced — one write for a pipelined
// batch — and gives the buffer back before it waits. A handed-off socket
// is written through sock, large bodies through pipe.
//
//phttp:hotpath
func (b *Backend) serveConn(c *beConn, sock *clientSock, pipe *bodyPipe) {
	w := respWriter{b: b, c: c, pipe: pipe}
	if c.fd >= 0 {
		if c.attach(sock) != nil {
			b.giveUp(c)
		}
		// The paper's handoff costs (taking the connection over, creating
		// the server-side socket state), charged here, not on the session,
		// which goes on feeding every other connection meanwhile.
		b.cpu.use(b.cfg.Costs.HandoffBE + b.cfg.Costs.ConnSetup)
	}
	for wait := true; ; {
		if wait {
			select {
			case <-c.q.wake:
			case <-b.closed:
				b.retire(c)
				return
			}
			wait = false
		}
		r, ok, shut := c.q.pop()
		if shut {
			w.drop()
			c.closeSocket()
			return
		}
		if !ok {
			if w.flush() != nil {
				b.giveUp(c)
				continue
			}
			yieldThread() // the batch is answered; next comes a wait for the front-end
			wait = true
			continue
		}
		if r.kind == kindClose {
			if c.fd >= 0 { // a relaying front-end pays the teardown itself
				b.cpu.use(b.cfg.Costs.ConnTeardown)
			}
			w.flush() // the connection is going away either way
			b.retire(c)
			return
		}
		if b.serveRequest(&w, r) != nil {
			w.drop()
			b.giveUp(c)
			continue
		}
		if !r.keep && c.sess == nil {
			if w.flush() != nil {
				b.giveUp(c)
				continue
			}
			c.endStream()
		}
	}
}

// serveRequest produces one response: locally (cache/disk) or via a lateral
// fetch from the tagged peer, in request order. CPU charges are
// consolidated into one gate visit per request so the host's sleep
// granularity does not multiply with the number of cost components.
//
//phttp:hotpath
func (b *Backend) serveRequest(w *respWriter, r beReq) error {
	costs := b.cfg.Costs
	if r.remote != core.NoNode && r.remote != b.cfg.ID {
		return b.serveForwarded(w, r)
	}
	dc := r.doc
	if dc.missing {
		b.cpu.use(costs.PerRequest)
		return w.respondError(r, 404)
	}
	if !b.store.cached(dc) {
		// Do not sit on finished responses while the disk is read — when
		// there is a read to wait for: a miss that costs no time is no
		// reason to split a batch's responses over two writes.
		if b.store.readTime(dc.size) > 0 {
			if err := w.flush(); err != nil {
				return err
			}
		}
		b.store.read(dc)
	}
	b.cpu.use(costs.PerRequest + costs.Transmit(dc.size))
	return w.respond(r, dc.size)
}

// serveForwarded performs the lateral fetch: request the content from the
// tagged back-end over one of the persistent connections to it and forward
// it on the client connection.
func (b *Backend) serveForwarded(w *respWriter, r beReq) error {
	costs := b.cfg.Costs
	b.peersMu.Lock()
	peer := b.peers[r.remote]
	b.peersMu.Unlock()
	if peer == nil {
		return w.respondError(r, 502)
	}
	// Nor across a round trip to the peer.
	if err := w.flush(); err != nil {
		return err
	}
	pc := <-peer
	w.from, w.pool = pc, peer
	defer w.releasePeer()
	size, err := pc.fetch(r.doc.target)
	if err != nil {
		// The peer may have died; surface a gateway error rather than
		// wedging the client connection.
		return w.respondError(r, 502)
	}
	// The request's PerRequest was the remote node's (servePeer).
	b.cpu.use(costs.ForwardPerRequest + costs.ForwardRecv(size) + costs.Transmit(size))
	return w.respond(r, size)
}

// respWriter is the serve goroutine's output side. For a handed-off
// connection it accumulates responses in a pooled chunk, checked out when
// the first response of a drain is produced and returned by flush; a
// response larger than the chunk streams through it as before. For a
// relayed connection every response is one frame on its session, written
// under that session's lock.
type respWriter struct {
	b    *Backend
	c    *beConn
	cw   *chunkWriter // non-nil while responses are buffered
	pipe *bodyPipe    // the worker's, for large bodies (sendPages)
	// from is the peer connection whose fetched body is the response
	// being written, taken from pool; nil for local content.
	from *peerConn
	pool peerPool
	// unflushed counts the 200 responses added to Backend.served whose
	// bytes are not yet known to be on the wire; a failed write takes
	// them back out (see Backend.served).
	unflushed int64
}

// releasePeer gives the lateral fetch's peer connection back to its pool,
// unless the response did already.
func (w *respWriter) releasePeer() {
	if w.from != nil {
		w.pool <- w.from
		w.from = nil
	}
}

// room makes sure a chunk is checked out and suits a response of total
// bytes on top of what is buffered: the smallest class that holds both,
// so a drain of small responses leaves as one write and a large body is
// written in chunks of the largest class.
func (w *respWriter) room(total int64) error {
	if err := w.drainPipe(); err != nil {
		return err
	}
	if w.cw == nil {
		if !w.c.hasSocket() {
			return errNoClientSocket
		}
		w.cw = newChunkWriter(w.c, total)
		return nil
	}
	want := int64(w.cw.n) + total
	if chunkClassFor(want) > w.cw.class {
		big := newChunkWriter(w.cw.w, want)
		big.n = copy(big.buf, w.cw.buf[:w.cw.n])
		big.flushes = w.cw.flushes
		w.cw.release()
		w.cw = big
	}
	return nil
}

// flush writes out what is buffered — in the pipe or the chunk; never
// both, as the pipe takes in the chunk — and returns the chunk to its
// pool.
func (w *respWriter) flush() error {
	err := w.drainPipe()
	if w.cw != nil {
		if err == nil {
			err = w.cw.Flush()
		}
		w.cw.release()
		w.cw = nil
	}
	if err != nil {
		w.b.served.Add(-w.unflushed)
	}
	w.unflushed = 0
	return err
}

// drop abandons what is buffered (the connection has failed).
func (w *respWriter) drop() {
	if w.cw != nil {
		w.cw.release()
		w.cw = nil
	}
	w.pipe.discard()
	w.b.served.Add(-w.unflushed)
	w.unflushed = 0
}

// respond emits status 200 with size body bytes: the requested document's
// content, or the fetched body of w.from. A large body leaves through the
// worker's pipe where the socket allows (sendPages), any other through the
// chunk.
//
//phttp:hotpath
func (w *respWriter) respond(r beReq, size int64) error {
	var hb [128]byte
	head := httpmsg.AppendResponseHead(hb[:0], r.proto.String(), 200, size, r.keep)
	var body io.Reader // nil: local content
	if w.from != nil {
		body = &w.from.body
	}
	if w.c.sess != nil {
		w.b.served.Add(1)
		err := w.b.writeRelayFrame(w.c, r, head, size, body)
		if err != nil {
			w.b.served.Add(-1)
		}
		return err
	}
	if sent, err := w.sendPages(r, head, size); sent {
		return err
	}
	if err := w.room(int64(len(head)) + size); err != nil {
		return err
	}
	// Count before the bytes can reach the client (see Backend.served).
	w.b.served.Add(1)
	w.unflushed++
	cw := w.cw
	before := cw.flushes
	if _, err := cw.Write(head); err != nil {
		return err
	}
	if err := writeBody(cw, r.doc.target, size, body); err != nil {
		return err
	}
	if cw.flushes != before {
		// The chunk went out at least once during this response, taking
		// every earlier one with it.
		w.unflushed = 1
	}
	return nil
}

// respondError emits a minimal error response, in order with the rest.
func (w *respWriter) respondError(r beReq, status int) error {
	text := httpmsg.StatusText(status)
	size := int64(len(text)) + 1
	var hb [160]byte
	head := httpmsg.AppendResponseHead(hb[:0], r.proto.String(), status, size, r.keep)
	head = append(append(head, text...), '\n')
	if w.c.sess != nil {
		return w.b.writeRelayFrame(w.c, r, head, 0, nil)
	}
	if err := w.room(int64(len(head))); err != nil {
		return err
	}
	_, err := w.cw.Write(head)
	return err
}

// writeBody writes size bytes of body into the chunk: t's content, or read
// from body, which ends after them, when body is non-nil.
func writeBody(cw *chunkWriter, t core.Target, size int64, body io.Reader) error {
	if body == nil {
		return cw.writeContent(t, size)
	}
	n, err := cw.ReadFrom(body)
	if err == nil && n != size {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// writeRelayFrame ships a framed response to the front-end on the
// connection's session: a RESP line, then its count of raw HTTP bytes
// (head, then size body bytes). The session carries every relayed
// connection of its front-end and the node's control lines, so a frame is
// written whole under the session's lock.
func (b *Backend) writeRelayFrame(c *beConn, r beReq, head []byte, size int64, body io.Reader) error {
	s := c.sess
	s.mu.Lock()
	defer s.mu.Unlock()
	total := int64(len(head)) + size
	cw := newChunkWriter(s.conn, total+64)
	defer cw.release()
	var lb [64]byte
	if _, err := cw.Write(appendResp(lb[:0], c.id, r.seq, total)); err != nil {
		return err
	}
	if _, err := cw.Write(head); err != nil {
		return err
	}
	if size > 0 {
		if err := writeBody(cw, r.doc.target, size, body); err != nil {
			return err
		}
	}
	return cw.Flush()
}
