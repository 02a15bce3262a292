//go:build linux

package cluster

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// Large bodies leave a back-end as page references (DESIGN §4.3). A
// document's content has a period of chunkBytes, so one content page holds
// every byte of it: body offset off is page byte off % pageSize. The page
// is filled once, on the document's first large body, and never written
// again. A local response goes out as its head, copied into a pipe with
// write(2), the body, put in the same pipe by reference with vmsplice, and
// one splice from the pipe to the client socket, which Linux 6.5 and later
// sends as page references (MSG_SPLICE_PAGES); a lateral fetch's serving
// side does the same into the peer socket, and the handling side splices
// the body from the peer socket through its pipe to the client socket.
// Bodies below pageBodyMin, relay frames and sockets without a descriptor
// take the chunk path (bufpool.go).

// pageBodyMin is the smallest body that is sent from its content page. A
// page body costs a vmsplice and a splice where the chunk path makes one
// write, so a small body is cheaper copied. Measured as the process's CPU
// time per response over loopback TCP, four pipelined a batch, client
// included (2 CPUs, Linux 6.18): at 16 KB the chunk path costs 9–13 µs and
// the page path 14–15; they tie at 20 KB (15 µs); from 28 KB on the page
// path is cheaper (12–14 µs against 17–18).
const pageBodyMin = 20 << 10

// pipeBytes is the pipe size asked of F_SETPIPE_SZ: a 256 KB body, head
// and all, goes through in one round. The kernel may give less.
const pipeBytes = 512 << 10

// arenaPiece is how much page memory is mapped at a time: one mapping per
// 512 documents, not one per page, so vm.max_map_count is no bound.
const arenaPiece = 2 << 20

const (
	spliceMove     = 0x1 // SPLICE_F_MOVE
	spliceNonblock = 0x2 // SPLICE_F_NONBLOCK
)

// pageArena is a node's memory for content pages: anonymous mappings,
// never the Go heap, whose memory the collector reuses while a socket
// could still be sending it. One page per distinct document of
// pageBodyMin bytes or more: 4 KB each, carved from arenaPiece mappings.
type pageArena struct {
	mu     sync.Mutex
	pieces [][]byte // every mapping, for release
	free   []byte   // what the newest piece has not handed out
	closed bool
}

// publish makes dc's content page — unless another goroutine just did —
// and publishes it on dc, filled: a page is written here only, once. It
// returns nil when the arena is released or no memory can be mapped.
func (a *pageArena) publish(dc *doc) *contentPage {
	a.mu.Lock()
	defer a.mu.Unlock()
	if pg := dc.page.Load(); pg != nil || a.closed {
		return pg
	}
	if len(a.free) == 0 {
		mem, err := syscall.Mmap(-1, 0, arenaPiece, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			return nil
		}
		a.pieces, a.free = append(a.pieces, mem), mem
		arenaBytes.Add(arenaPiece)
	}
	pg := (*contentPage)(a.free[:pageSize])
	a.free = a.free[pageSize:]
	fillContent(pg[:], dc.target, 0)
	dc.page.Store(pg)
	return pg
}

// release unmaps the arena; later publishes make nothing.
func (a *pageArena) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, mem := range a.pieces {
		syscall.Munmap(mem)
		arenaBytes.Add(-arenaPiece)
	}
	a.pieces, a.free, a.closed = nil, nil, true
}

// bodyPipe is a pipe that responses pass through on their way to a
// socket. It is opened on first use and owned by one goroutine's loop — a
// connection worker, a lateral-fetch session — never by a pooled record,
// whose loss to the collector would leak its descriptors. It is empty
// between uses; one that fails with bytes inside is closed, and opened
// afresh on its next use.
type bodyPipe struct {
	r, w int
	ok   bool // open
	iovs int  // the most iovecs one vmsplice can place: the pipe's pages
	held int  // bytes in the pipe
	iov  [pipeBytes / pageSize]syscall.Iovec
	// Callbacks for a RawConn's Write (drainTo) and Read (fillFrom),
	// bound once, and what they report.
	drainCB, fillCB func(uintptr) bool
	want            int64 // fillFrom: bytes the source still owes
	full            bool  // fillFrom stopped on a full pipe
	err             error
}

// ready opens the pipe unless it is open, and reports whether it is.
func (p *bodyPipe) ready() bool {
	if !p.ok {
		p.ok = p.open() == nil
	}
	return p.ok
}

func (p *bodyPipe) open() error {
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		return err
	}
	p.r, p.w, p.held = fds[0], fds[1], 0
	fcntl(p.w, syscall.F_SETPIPE_SZ, pipeBytes) // refused past fs.pipe-max-size: take what there is
	p.iovs = len(p.iov)
	if size, err := fcntl(p.w, syscall.F_GETPIPE_SZ, 0); err == nil {
		p.iovs = max(min(size/pageSize, len(p.iov)), 1)
	}
	if p.drainCB == nil {
		p.drainCB, p.fillCB = p.drainTo, p.fillFrom
	}
	return nil
}

func fcntl(fd, cmd, arg int) (int, error) {
	r, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), uintptr(cmd), uintptr(arg))
	if e != 0 {
		return 0, e
	}
	return int(r), nil
}

func (p *bodyPipe) close() {
	if p.ok {
		syscall.Close(p.r)
		syscall.Close(p.w)
		p.ok, p.held = false, 0
	}
}

// settle closes a pipe that err left with bytes inside.
func (p *bodyPipe) settle(err error) error {
	if err != nil {
		p.discard()
	}
	return err
}

// discard closes the pipe if it holds bytes that are not to be sent.
func (p *bodyPipe) discard() {
	if p.held > 0 {
		p.close()
	}
}

var errPipeStuck = errors.New("cluster: pipe took no bytes")

// pipeSink is where a pipe is emptied: drainPipe moves every byte held
// to the socket, waiting for it as it must.
type pipeSink interface {
	drainPipe(p *bodyPipe) error
}

// put copies b into the pipe as far as it has room, draining it to dst
// whenever it is full.
//
//phttp:hotpath
func (p *bodyPipe) put(b []byte, dst pipeSink) error {
	for len(b) > 0 {
		n, err := syscall.Write(p.w, b)
		switch {
		case err == nil:
			p.held += n
			b = b[n:]
		case err == syscall.EAGAIN:
			if p.held == 0 {
				return errPipeStuck
			}
			if err := dst.drainPipe(p); err != nil {
				return err
			}
		case err != syscall.EINTR:
			return err
		}
	}
	return nil
}

// putPage places body bytes [off, end) of a page-backed body in the pipe
// by reference, one iovec per page, as many as it has room for, and
// returns how many.
//
//phttp:hotpath
func (p *bodyPipe) putPage(pg *contentPage, off, end int64) (int64, error) {
	n := 0
	for ; n < p.iovs && off < end; n++ {
		o := off % pageSize
		l := min(pageSize-o, end-off)
		p.iov[n].Base = &pg[o]
		p.iov[n].SetLen(int(l))
		off += l
	}
	for {
		m, _, e := syscall.Syscall6(syscall.SYS_VMSPLICE, uintptr(p.w), uintptr(unsafe.Pointer(&p.iov[0])), uintptr(n), spliceNonblock, 0, 0)
		switch e {
		case 0:
			p.held += int(m)
			return int64(m), nil
		case syscall.EAGAIN:
			return 0, nil
		case syscall.EINTR:
		default:
			return 0, errnoErr(e)
		}
	}
}

// errnoErr returns e as an error, out of line: an Errno boxes without
// allocating, but a hot path may not box a non-pointer value.
func errnoErr(e syscall.Errno) error { return e }

// putBody puts pre and then size bytes of page-backed body in the pipe,
// pre by copy and the body by reference, and has dst empty it whenever it
// is full. The last bytes stay in the pipe.
//
//phttp:hotpath
func (p *bodyPipe) putBody(pre []byte, pg *contentPage, size int64, dst pipeSink) error {
	err := p.put(pre, dst)
	for off := int64(0); err == nil && off < size; {
		var n int64
		n, err = p.putPage(pg, off, size)
		off += n
		if err == nil && n == 0 { // full
			if p.held == 0 {
				err = errPipeStuck
			} else {
				err = dst.drainPipe(p)
			}
		}
	}
	return p.settle(err)
}

// drainTo is drainCB: it splices what the pipe holds to socket fd until
// the pipe is empty, or asks to wait (false) when the socket is full.
//
//phttp:hotpath
func (p *bodyPipe) drainTo(fd uintptr) bool {
	for p.held > 0 {
		switch err := p.spliceTo(int(fd)); err {
		case nil, syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			p.err = err
			return true
		}
	}
	return true
}

// spliceTo splices what the pipe holds to socket fd, once.
//
//phttp:hotpath
func (p *bodyPipe) spliceTo(fd int) error {
	n, err := syscall.Splice(p.r, nil, fd, nil, p.held, spliceMove|spliceNonblock)
	if n > 0 {
		p.held -= int(n)
	} else if err == nil {
		err = io.ErrShortWrite
	}
	return err
}

// fillFrom is fillCB: it splices up to p.want bytes from socket fd into
// the pipe. It asks to wait (false) when the socket has nothing yet; it
// stops, setting full, when the pipe has no room.
//
//phttp:hotpath
func (p *bodyPipe) fillFrom(fd uintptr) bool {
	for p.want > 0 {
		n, err := syscall.Splice(int(fd), nil, p.w, nil, int(min(p.want, 1<<30)), spliceMove|spliceNonblock)
		switch {
		case n > 0:
			p.held += int(n)
			p.want -= int64(n)
		case err == syscall.EAGAIN:
			// The pipe is full or the socket empty: its queue tells which.
			if inq(int(fd)) == 0 {
				return false
			}
			p.full = true
			return true
		case err == nil:
			p.err = io.ErrUnexpectedEOF
			return true
		case err != syscall.EINTR:
			p.err = err
			return true
		}
	}
	return true
}

// inq is how many bytes wait in socket fd's receive queue.
func inq(fd int) int {
	var v int32
	syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), syscall.TIOCINQ, uintptr(unsafe.Pointer(&v)))
	return int(v)
}

// drainPipe empties p onto the client socket under Write's rule: with
// maxPending or more requests waiting, stallGrace to move a byte.
//
//phttp:hotpath
func (c *beConn) drainPipe(p *bodyPipe) error {
	for {
		held := p.held
		err := c.sock.splice(p)
		if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) || !c.goesOn(p.held != held) {
			return err
		}
	}
}

// sendPages sends a 200 response of size bytes — the document's
// content, or the fetched body of w.from — through the worker's pipe,
// when the body is large enough and the client socket has a descriptor;
// it reports whether it did. The responses buffered in the chunk go into the pipe ahead of
// it. Local content may stay in the pipe for the responses after it:
// flush, or the next response for the chunk, sends it (drainPipe).
//
//phttp:hotpath
func (w *respWriter) sendPages(r beReq, head []byte, size int64) (bool, error) {
	if size < pageBodyMin || w.from != nil && w.from.rc == nil || !w.c.hasSocket() || !w.pipe.ready() {
		return false, nil
	}
	var pg *contentPage
	if w.from == nil {
		if pg = w.b.store.page(r.doc); pg == nil {
			return false, nil
		}
	}
	// Count before the bytes can reach the client (see Backend.served).
	w.b.served.Add(1)
	w.unflushed++
	pre := head
	if cw := w.cw; cw != nil && cw.n > 0 {
		if cw.n+len(head) <= len(cw.buf) {
			pre = append(cw.buf[:cw.n], head...)
		} else if err := w.pipe.put(cw.buf[:cw.n], w.c); err != nil {
			return true, w.pipe.settle(err)
		}
		cw.n = 0
	}
	if pg != nil {
		return true, w.pipe.putBody(pre, pg, size, w.c)
	}
	err := w.forward(pre)
	if err == nil {
		w.unflushed = 0
	}
	return true, err
}

// drainPipe puts what the worker's pipe holds on the client socket.
func (w *respWriter) drainPipe() error {
	if w.pipe.held == 0 {
		return nil
	}
	return w.pipe.settle(w.c.drainPipe(w.pipe))
}

// forward sends pre and then w.from's body: the bytes its reader holds
// already by copy, the rest spliced from the peer socket. A body that fits
// the pipe is taken whole, and the peer connection given back, before the
// client is written to; a larger one is forwarded a pipe at a time.
// from.body.N keeps count, so a body cut short resets the connection.
//
//phttp:hotpath
func (w *respWriter) forward(pre []byte) error {
	p, pc := w.pipe, w.from
	err := p.put(pre, w.c)
	if err == nil {
		n := int(min(int64(pc.br.Buffered()), pc.body.N))
		b, _ := pc.br.Peek(n)
		if err = p.put(b, w.c); err == nil {
			pc.br.Discard(n)
			pc.body.N -= int64(n)
		}
	}
	for err == nil && pc != nil && pc.body.N > 0 {
		if err = pc.fill(p); err != nil {
			break
		}
		if pc.body.N == 0 {
			w.releasePeer() // pc is another fetch's from here on
			pc = nil
		}
		err = w.c.drainPipe(p)
	}
	if err == nil && p.held > 0 {
		err = w.c.drainPipe(p)
	}
	return p.settle(err)
}

// fill splices the body's next bytes from the peer socket into p, until
// the body is in or p is full.
//
//phttp:hotpath
func (pc *peerConn) fill(p *bodyPipe) error {
	p.want, p.full, p.err = pc.body.N, false, nil
	err := pc.rc.Read(p.fillCB)
	pc.body.N = p.want
	if err == nil {
		err = p.err
	}
	if err == nil && p.full && p.held == 0 {
		err = errPipeStuck
	}
	return err
}

// rawConn takes the peer socket's RawConn, once per connection.
func (pc *peerConn) rawConn() {
	if sc, ok := pc.conn.(syscall.Conn); ok {
		pc.rc, _ = sc.SyscallConn()
	}
}

// peerOut is a lateral-fetch session's way out for page-backed bodies:
// its pipe, and the session socket's RawConn, taken on the first one.
type peerOut struct {
	pipe bodyPipe
	rc   syscall.RawConn
}

// send sends line and then size bytes of page pg on conn, when it can; it
// reports whether it did.
func (o *peerOut) send(conn net.Conn, line []byte, pg *contentPage, size int64) (bool, error) {
	if pg == nil || !o.pipe.ready() {
		return false, nil
	}
	if o.rc == nil {
		sc, ok := conn.(syscall.Conn)
		if !ok {
			return false, nil
		}
		var err error
		if o.rc, err = sc.SyscallConn(); err != nil {
			return false, nil
		}
	}
	err := o.pipe.putBody(line, pg, size, o)
	if err == nil && o.pipe.held > 0 {
		err = o.pipe.settle(o.drainPipe(&o.pipe))
	}
	return true, err
}

//phttp:hotpath
func (o *peerOut) drainPipe(p *bodyPipe) error {
	p.err = nil
	if err := o.rc.Write(p.drainCB); err != nil {
		return err
	}
	return p.err
}

func (o *peerOut) close() { o.pipe.close() }
