package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"phttp/internal/core"
	"phttp/internal/httpmsg"
	"phttp/internal/policy"
	"phttp/internal/server"
)

// unixPair returns the two ends of a connected UNIX stream socket: what a
// front-end dials and a back-end accepts.
func unixPair(t testing.TB) (send, recv *net.UnixConn) {
	t.Helper()
	addr, err := net.ResolveUnixAddr("unix", filepath.Join(t.TempDir(), "ho.sock"))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.ListenUnix("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if send, err = net.DialUnix("unix", nil, addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })
	if recv, err = ln.AcceptUnix(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	return send, recv
}

// tcpPair returns a loopback connection's two ends.
func tcpPair(t testing.TB) (client net.Conn, accepted *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return client, conn.(*net.TCPConn)
}

// fdOf returns conn's descriptor, as accept4 returns it to the front-end.
func fdOf(t testing.TB, conn *net.TCPConn) int {
	t.Helper()
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	fd := -1
	rc.Control(func(s uintptr) { fd = int(s) })
	return fd
}

// clientRecord returns a front-end worker's client record serving
// connection fd, as serveClient attaches it. The descriptor stays the
// caller's to close.
func clientRecord(t testing.TB, fd int) *feConn {
	t.Helper()
	c := newFEConn()
	t.Cleanup(c.sock.release)
	if err := c.sock.attach(fd, true); err != nil {
		t.Fatal(err)
	}
	c.br.Reset(c.sock)
	return c
}

// readWithin reads from r on a goroutine of its own, so that a read that
// ignores its deadline fails the test instead of hanging it.
func readWithin(t *testing.T, r io.Reader, d time.Duration) (string, error) {
	t.Helper()
	type result struct {
		s   string
		err error
	}
	done := make(chan result, 1)
	go func() {
		buf := make([]byte, 64)
		n, err := r.Read(buf)
		done <- result{string(buf[:n]), err}
	}()
	select {
	case res := <-done:
		return res.s, res.err
	case <-time.After(d):
		t.Fatalf("read still blocked after %v", d)
		return "", nil
	}
}

// TestHandOffBorrowsDescriptor drives the function a connection's first
// batch goes out through: the ID arrives, the back-end's descriptor reaches
// the client, and the front-end's own connection — never dupped, its mode
// never touched — still reads and still honours a read deadline.
func TestHandOffBorrowsDescriptor(t *testing.T) {
	client, accepted := tcpPair(t)
	send, recv := unixPair(t)
	fe := &FrontEnd{links: []*beLink{{id: 0, ctrl: send}}}
	c := clientRecord(t, fdOf(t, accepted))
	c.id = 77
	c.line = appendHandoff(c.line, c.id)
	if err := fe.handOff(c, 0); err != nil {
		t.Fatalf("handOff: %v", err)
	}
	id, be, err := RecvConnFD(recv)
	if err != nil {
		t.Fatalf("RecvConnFD: %v", err)
	}
	defer be.Close()
	if id != 77 {
		t.Errorf("handed-off connection %d, want 77", id)
	}

	if _, err := io.WriteString(be, "pong\n"); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	if line, err := bufio.NewReader(client).ReadString('\n'); err != nil || line != "pong\n" {
		t.Errorf("client received %q, %v through the handed-off descriptor", line, err)
	}

	if _, err := io.WriteString(client, "ping\n"); err != nil {
		t.Fatal(err)
	}
	if got, err := readWithin(t, accepted, 10*time.Second); err != nil || got != "ping\n" {
		t.Errorf("front-end read %q, %v after the handoff", got, err)
	}
	accepted.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := readWithin(t, accepted, 10*time.Second); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("front-end read after the handoff: %v, want its deadline to expire", err)
	}

	// A node with no session is an error, not a nil dereference.
	fe.links[0].ctrl = nil
	if err := fe.handOff(c, 0); err == nil {
		t.Error("handOff without a session succeeded")
	}
}

// handoffAllocBudget is what one handoff costs in allocations, both ends
// together: none. The front-end sends the descriptor accept4 returned, and
// the back-end keeps the one it receives raw. It was 3 while the front-end
// borrowed the descriptor through a RawConn (1) and the back-end wrapped
// it in an *os.File (2), and 22 when the front-end dupped the socket into
// an *os.File and the back-end dupped that again into a net.Conn.
const handoffAllocBudget = 0

// The handoff as the two nodes make it — the first batch sent with the
// descriptor, read off the session, the descriptor claimed and adopted —
// and closing what was adopted.
func TestHandoffAllocs(t *testing.T) {
	_, accepted := tcpPair(t)
	send, recv := unixPair(t)
	fe := &FrontEnd{links: []*beLink{{id: 0, ctrl: send}}}
	c := clientRecord(t, fdOf(t, accepted))
	sr := &sessionReader{uc: recv}
	br := bufio.NewReaderSize(sr, ctrlBufBytes)
	got := testing.AllocsPerRun(200, func() {
		c.id++
		c.line = appendReq(appendHandoff(c.line[:0], c.id), c.id, 0, proto10, false, core.NoNode, "/x")
		if err := fe.handOff(c, 0); err != nil {
			t.Fatal(err)
		}
		for _, want := range []ctrlKind{kindHandoff, kindReq} {
			if m, err := readCtrl(br); err != nil || m.Kind != want || m.Conn != c.id {
				t.Fatalf("read %+v, %v; want kind %d of connection %d", m, err, want, c.id)
			}
		}
		fd, ok := sr.claim()
		if !ok {
			t.Fatal("no descriptor came with the HANDOFF")
		}
		if err := adoptRaw(fd); err != nil {
			t.Fatal(err)
		}
		syscall.Close(fd)
	})
	if got > handoffAllocBudget {
		t.Errorf("handoff: %v allocs per connection (send + receive + close), budget %d", got, handoffAllocBudget)
	}
}

// The front-end's accept allocates nothing: one accept4, the descriptor
// added to the worker's epoll set, and, when the connection ends, taken
// out of it and closed. No address objects, no net.Conn, no closure per
// accept and no *os.File: net.Listener.Accept made 6, and an *os.File per
// connection 2.
func TestAcceptAllocs(t *testing.T) {
	const runs = 50
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for range runs + 1 {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	rc, err := ln.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	c := newFEConn()
	defer c.sock.release()
	var a acceptor
	accept := a.accept
	got := testing.AllocsPerRun(runs, func() {
		if err := rc.Read(accept); err != nil || a.err != nil {
			t.Fatalf("accept: %v, %v", err, a.err)
		}
		if err := c.sock.attach(a.fd, true); err != nil {
			t.Fatalf("attach: %v", err)
		}
		c.sock.close()
	})
	if got > 0 {
		t.Errorf("accept: %v allocs per connection, want 0", got)
	}
}

// stubBackend accepts a front-end's session on a UNIX socket and does
// nothing with what arrives but report it: each message as one recvmsg
// returned it, with its descriptors raw — their file status flags read,
// never read, written or wrapped.
type stubBackend struct {
	ep   BackendEndpoints
	msgs chan stubMsg
}

// stubMsg is what one recvmsg returned: the bytes, and the descriptors with
// their file status flags (F_GETFL).
type stubMsg struct {
	data string
	fds  []rawHandoff
}

type rawHandoff struct{ fd, flags, nodelay, keepalive int }

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stub.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	sb := &stubBackend{ep: BackendEndpoints{Handoff: path}, msgs: make(chan stubMsg, 16)}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		oob := make([]byte, syscall.CmsgSpace(4*4))
		for {
			n, oobn, _, _, err := conn.(*net.UnixConn).ReadMsgUnix(buf, oob)
			if err != nil {
				return
			}
			m := stubMsg{data: string(buf[:n])}
			cmsgs, _ := syscall.ParseSocketControlMessage(oob[:oobn])
			for i := range cmsgs {
				fds, _ := syscall.ParseUnixRights(&cmsgs[i])
				for _, fd := range fds {
					flags, _, _ := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_GETFL, 0)
					nodelay, _ := syscall.GetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
					keepalive, _ := syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE)
					m.fds = append(m.fds, rawHandoff{fd, int(flags), nodelay, keepalive})
				}
			}
			sb.msgs <- m
		}
	}()
	return sb
}

func (sb *stubBackend) msg(t *testing.T, within time.Duration) stubMsg {
	t.Helper()
	select {
	case m := <-sb.msgs:
		for _, h := range m.fds {
			t.Cleanup(func() { syscall.Close(h.fd) })
		}
		return m
	case <-time.After(within):
		t.Fatalf("no message within %v", within)
		return stubMsg{}
	}
}

// stubFrontEnd starts a front-end on the stub — single handoff under LARD,
// back-end forwarding under extended LARD — and connects a client to it.
func stubFrontEnd(t *testing.T, sb *stubBackend, mech core.Mechanism, idle time.Duration) (*FrontEnd, net.Conn) {
	t.Helper()
	pol := "lard"
	if mech == core.BEForwarding {
		pol = "extlard"
	}
	fe, err := NewFrontEnd(FrontEndConfig{
		Nodes: 1, Policy: pol, Mechanism: mech,
		Params: policy.DefaultParams(), CacheBytes: 1 << 20,
		IdleTimeout: idle, BatchWindow: time.Millisecond,
		HeartbeatTimeout: time.Minute, // the stub reports no disk queue
	}, []BackendEndpoints{sb.ep})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fe.Close)
	client, err := net.Dial("tcp", fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() }) // before fe.Close: ends a read that ignores its deadline
	return fe, client
}

// handoffID returns the connection a message's first line hands off.
func handoffID(t *testing.T, m stubMsg) string {
	t.Helper()
	id, ok := strings.CutPrefix(strings.SplitN(m.data, "\n", 2)[0], "HANDOFF ")
	if !ok || len(m.fds) != 1 {
		t.Fatalf("message %q with %d descriptors, want a HANDOFF with one", m.data, len(m.fds))
	}
	return id
}

// awaitClosed waits until the dispatcher holds no open connection.
func awaitClosed(t *testing.T, fe *FrontEnd) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); fe.Engine().Active() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open at the dispatcher", fe.Engine().Active())
		}
		time.Sleep(time.Millisecond)
	}
}

// The handoff leaves the client socket's mode alone: the descriptor the
// back-end receives is still non-blocking before anything wraps it — and
// as the front-end's accept left it: TCP_NODELAY on, since back-ends write
// responses on it, and no keep-alive probes — and the
// front-end's reads of the connection still honour their deadlines — it
// closes an idle connection on time even if the back-end never touches
// the socket. (Taking the descriptor out with File and Fd cleared
// O_NONBLOCK on the shared socket until the back-end's net.FileConn set it
// again; with this back-end, for good: the front-end's read then ignored the
// idle timeout and held a thread.)
func TestHandoffLeavesSocketNonBlocking(t *testing.T) {
	const idle = 200 * time.Millisecond
	sb := newStubBackend(t)
	fe, client := stubFrontEnd(t, sb, core.SingleHandoff, idle)
	if _, err := io.WriteString(client, "GET /x HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}

	m := sb.msg(t, 10*time.Second)
	id := handoffID(t, m)
	if m.fds[0].flags&syscall.O_NONBLOCK == 0 {
		t.Errorf("handed-off socket arrived in blocking mode (flags %#x)", m.fds[0].flags)
	}
	if h := m.fds[0]; h.nodelay == 0 || h.keepalive != 0 {
		t.Errorf("accepted socket has TCP_NODELAY %d and SO_KEEPALIVE %d, want on and off", h.nodelay, h.keepalive)
	}
	if want := "HANDOFF " + id + "\nREQ " + id + " 0 HTTP/1.1 1 - /x\n"; m.data != want {
		t.Fatalf("the handoff carries %q, want %q", m.data, want)
	}
	forwarded := time.Now()
	if got, want := sb.msg(t, idle+5*time.Second).data, "CLOSE "+id+"\n"; got != want {
		t.Fatalf("control message %q, want %q", got, want)
	}
	if took := time.Since(forwarded); took < idle/2 {
		t.Errorf("idle connection closed after %v, idle timeout is %v", took, idle)
	}
	awaitClosed(t, fe)
}

// An HTTP/1.0 connection is one send from the front-end and one receive at
// the back-end: the handoff's sendmsg carries the descriptor, the request
// and the connection's CLOSE. The front-end then waits for the client to
// close, and sends nothing more.
func TestHandoffRidesFirstBatch(t *testing.T) {
	sb := newStubBackend(t)
	fe, client := stubFrontEnd(t, sb, core.SingleHandoff, time.Minute)
	if _, err := io.WriteString(client, "GET /x HTTP/1.0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	m := sb.msg(t, 10*time.Second)
	id := handoffID(t, m)
	if want := "HANDOFF " + id + "\nREQ " + id + " 0 HTTP/1.0 0 - /x\nCLOSE " + id + "\n"; m.data != want {
		t.Fatalf("the handoff carries %q, want %q", m.data, want)
	}
	if fe.Engine().Active() != 1 {
		t.Errorf("%d connections open at the dispatcher before the client closed, want 1", fe.Engine().Active())
	}
	client.Close()
	awaitClosed(t, fe)
	select {
	case m := <-sb.msgs:
		t.Errorf("after the client closed the back-end received %q", m.data)
	case <-time.After(100 * time.Millisecond):
	}
}

// A connection's first batch is one message at the back-end however many
// requests it pipelines, under back-end forwarding as under single handoff:
// HANDOFF, every REQ line and, its last request ending the connection,
// CLOSE, with one descriptor.
func TestPipelinedFirstBatchIsOneHandoff(t *testing.T) {
	for _, mech := range []core.Mechanism{core.SingleHandoff, core.BEForwarding} {
		t.Run(mech.String(), func(t *testing.T) {
			sb := newStubBackend(t)
			_, client := stubFrontEnd(t, sb, mech, time.Minute)
			const batch = "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n" +
				"GET /c HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
			if _, err := io.WriteString(client, batch); err != nil {
				t.Fatal(err)
			}
			m := sb.msg(t, 10*time.Second)
			id := handoffID(t, m)
			want := "HANDOFF " + id + "\nREQ " + id + " 0 HTTP/1.1 1 - /a\nREQ " + id + " 1 HTTP/1.1 1 - /b\n" +
				"REQ " + id + " 2 HTTP/1.1 0 - /c\nCLOSE " + id + "\n"
			if m.data != want {
				t.Fatalf("the handoff carries %q, want %q", m.data, want)
			}
		})
	}
}

// sendRaw sends a handoff message assembled by hand: hdr with fd attached
// copies times.
func sendRaw(t *testing.T, uc *net.UnixConn, hdr []byte, fd, copies int) {
	t.Helper()
	var oob []byte
	if copies > 0 {
		fds := make([]int, copies)
		for i := range fds {
			fds[i] = fd
		}
		oob = syscall.UnixRights(fds...)
	}
	if _, _, err := uc.WriteMsgUnix(hdr, oob, nil); err != nil {
		t.Fatal(err)
	}
}

// A malformed handoff message is an error that leaks nothing: whatever
// descriptors came with it are closed. Each case sends copies of a pipe's
// write end and closes its own; the read end sees EOF only once every copy
// the receiver was given is closed too.
func TestRecvConnFDRejectsAndCloses(t *testing.T) {
	good := appendHandoff(nil, 5)
	for _, tc := range []struct {
		name   string
		hdr    []byte
		copies int
	}{
		{"two descriptors", good, 2},
		{"more descriptors than fit (MSG_CTRUNC)", good, 3},
		{"no descriptor", good, 0},
		{"non-digit header", []byte("HANDOFF 5x\n"), 1},
		{"overflowing header", []byte("HANDOFF 99999999999999999999\n"), 1},
		{"short header", good[:7], 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			send, recv := unixPair(t)
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sendRaw(t, send, tc.hdr, int(w.Fd()), tc.copies)
			w.Close()
			if id, f, err := RecvConnFD(recv); err == nil {
				f.Close()
				t.Fatalf("accepted as connection %d", id)
			}
			r.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := r.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("pipe read: %v, want EOF: a received descriptor is still open", err)
			}
		})
	}

	// What the wrapper for *os.File holders sends is accepted, blocking
	// descriptor and all, and comes out pollable.
	send, recv := unixPair(t)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	if err := SendConnFD(send, math.MaxInt64, w); err != nil {
		t.Fatal(err)
	}
	id, f, err := RecvConnFD(recv)
	if err != nil || id != math.MaxInt64 {
		t.Fatalf("RecvConnFD = %d, %v", id, err)
	}
	defer f.Close()
	if err := f.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
		t.Errorf("received descriptor takes no write deadline: %v", err)
	}
	if err := SendConnFD(send, -1, w); err == nil {
		t.Error("SendConnFD accepted a negative connection ID")
	}
}

// sendWith sends msgs on the session with conn's descriptor attached, as the
// front-end sends a connection's first batch.
func sendWith(t *testing.T, sess *net.UnixConn, conn *net.TCPConn, msgs string) {
	t.Helper()
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	if cerr := rc.Control(func(fd uintptr) { err = writeHandoff(sess, []byte(msgs), int(fd)) }); cerr != nil || err != nil {
		t.Fatalf("sending %q: %v, %v", msgs, cerr, err)
	}
}

// dialSession opens a front-end's session to the back-end.
func dialSession(t *testing.T, be *Backend) *net.UnixConn {
	t.Helper()
	sess, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: be.HandoffPath(), Net: "unix"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(ents)
}

// On one session each HANDOFF gets its own descriptor, in order, however
// the messages fall into reads — a handoff whose sendmsg took only part of
// its lines (the rest followed in a plain write) included. A descriptor no
// HANDOFF claims is closed when the session ends, and a HANDOFF that finds
// no descriptor ends the session.
func TestSessionPairsDescriptorsInOrder(t *testing.T) {
	be, err := NewBackend(BackendConfig{
		ID: 0, Catalog: map[core.Target]int64{"/a": 100, "/b": 200, "/c": 300}, CacheBytes: 1 << 20,
		HandoffSocket: filepath.Join(t.TempDir(), "be.sock"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	before := openFDs(t)

	// Each connection asks for a document of its own size: a client that
	// reads another's was given another connection's descriptor.
	sess := dialSession(t, be)
	var clients [3]net.Conn
	var servers [3]*net.TCPConn
	for i := range clients {
		clients[i], servers[i] = tcpPair(t)
	}
	sendWith(t, sess, servers[0], "HANDOFF 1\nREQ 1 0 HTTP/1.1 1 - /a\n")
	sendWith(t, sess, servers[1], "HAND")
	if _, err := io.WriteString(sess, "OFF 2\nREQ 2 0 HTTP/1.1 1 - /b\nREQ 1 1 HTTP/1.1 1 - /a\n"); err != nil {
		t.Fatal(err)
	}
	sendWith(t, sess, servers[2], "HANDOFF 3\nREQ 3 0 HTTP/1.1 1 - /c\n")
	sendWith(t, sess, servers[0], "DISKQ 0\n") // a descriptor no HANDOFF claims
	for i, sizes := range [][]int64{{100, 100}, {200}, {300}} {
		clients[i].SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(clients[i])
		for _, want := range sizes {
			if status, size := readResponse(t, br); status != 200 || size != want {
				t.Errorf("connection %d: status %d, %d bytes; want 200, %d", i+1, status, size, want)
			}
		}
	}
	if _, err := io.WriteString(sess, "CLOSE 1\nCLOSE 2\nCLOSE 3\n"); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	for i := range clients {
		clients[i].Close()
		servers[i].Close()
	}
	// Not above: what earlier tests left behind may still be closing.
	for deadline := time.Now().Add(10 * time.Second); openFDs(t) > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open, %d before the session", openFDs(t), before)
		}
	}

	// A HANDOFF with no descriptor waiting ends the session.
	sess = dialSession(t, be)
	if _, err := io.WriteString(sess, "HANDOFF 4\n"); err != nil {
		t.Fatal(err)
	}
	sess.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(sess)
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			break
		}
		if err != nil || !strings.HasPrefix(line, "DISKQ ") {
			t.Fatalf("session read %q, %v; want disk reports, then the end of the session", line, err)
		}
	}
	be.connMu.Lock()
	defer be.connMu.Unlock()
	if len(be.conns) != 0 {
		t.Errorf("%d connection records after a HANDOFF without a descriptor", len(be.conns))
	}
}

// A handed-off socket is written raw until the kernel takes no more: a
// response larger than both socket buffers, to a client that starts
// reading only once the socket is full, goes on through the poller and
// arrives byte for byte, and so does the next batch on the connection.
func TestFullSocketGoesToPoller(t *testing.T) {
	const big = 16 << 20 // past the loopback send and receive buffers together
	be, err := NewBackend(BackendConfig{
		ID: 0, Catalog: map[core.Target]int64{"/big": big, "/small": 700}, CacheBytes: 1 << 20,
		HandoffSocket: filepath.Join(t.TempDir(), "be.sock"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	sess := dialSession(t, be)
	client, accepted := tcpPair(t)
	sendWith(t, sess, accepted, "HANDOFF 1\nREQ 1 0 HTTP/1.1 1 - /big\n")
	waitParked(t, "clientSock).run")
	client.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(client)
	check := func(tgt core.Target, size int64) {
		t.Helper()
		resp, err := httpmsg.ReadResponse(br)
		if err != nil || resp.Status != 200 || resp.ContentLength != size {
			t.Fatalf("%s: %+v, %v; want 200 with %d bytes", tgt, resp, err, size)
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatalf("%s: body: %v", tgt, err)
		}
		var want bytes.Buffer
		WriteContent(&want, tgt, size)
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("%s: body differs from its content", tgt)
		}
	}
	check("/big", big)
	if _, err := io.WriteString(sess, "REQ 1 1 HTTP/1.1 1 - /small\n"); err != nil {
		t.Fatal(err)
	}
	check("/small", 700)
	if _, err := io.WriteString(sess, "CLOSE 1\n"); err != nil {
		t.Fatal(err)
	}
}

// The back-end's cost of taking over a handed-off connection is charged on
// the connection's own goroutine: with the CPU model on, the session goes on
// registering the next connection while the first one's charge runs, instead
// of every connection of the node waiting on it.
func TestHandoffCostOffSessionLoop(t *testing.T) {
	const charge = 500 * time.Millisecond
	be, err := NewBackend(BackendConfig{
		ID: 0, Catalog: map[core.Target]int64{"/a": 100}, CacheBytes: 1 << 20,
		SimulateCPU: true, Costs: server.Costs{HandoffBE: core.Micros(charge / time.Microsecond)},
		HandoffSocket: filepath.Join(t.TempDir(), "be.sock"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	sess := dialSession(t, be)
	_, first := tcpPair(t)
	_, second := tcpPair(t)
	start := time.Now()
	sendWith(t, sess, first, "HANDOFF 1\n")
	sendWith(t, sess, second, "HANDOFF 2\n")
	for {
		be.connMu.Lock()
		n := len(be.conns)
		be.connMu.Unlock()
		if n == 2 {
			break
		}
		if time.Since(start) > charge/2 {
			t.Fatalf("%d of 2 connections registered %v after their handoffs; one handoff's charge is %v", n, time.Since(start), charge)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := io.WriteString(sess, "CLOSE 1\nCLOSE 2\n"); err != nil {
		t.Fatal(err)
	}
}

// A handed-off HTTP/1.0 connection whose client resets before its response
// leaves no record behind. Its CLOSE came with its request, and the
// front-end sends no other: the failed write must not take the CLOSE with
// the request, or the record stays in the table for good.
func TestAbortedHandoffRetiresByQueuedClose(t *testing.T) {
	const charge = 200 * time.Millisecond // holds the response back
	be, err := NewBackend(BackendConfig{
		ID: 0, Catalog: map[core.Target]int64{"/a": 100}, CacheBytes: 1 << 20,
		SimulateCPU: true, Costs: server.Costs{HandoffBE: core.Micros(charge / time.Microsecond)},
		HandoffSocket: filepath.Join(t.TempDir(), "be.sock"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	sess := dialSession(t, be)
	client, accepted := tcpPair(t)
	sendWith(t, sess, accepted, "HANDOFF 1\nREQ 1 0 HTTP/1.0 0 - /a\nCLOSE 1\n")
	client.(*net.TCPConn).SetLinger(0)
	client.Close() // a reset
	accepted.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		be.connMu.Lock()
		n := len(be.conns)
		be.connMu.Unlock()
		if n == 0 && be.Aborted() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connection records and %d aborted, want 0 and 1", n, be.Aborted())
		}
	}
}
