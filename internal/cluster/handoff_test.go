package cluster

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"phttp/internal/core"
	"phttp/internal/policy"
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

// TestHandOffBorrowsDescriptor drives the function openConn calls: the ID
// arrives, the back-end's descriptor reaches the client, and the front-end's
// own connection — never dupped, its mode never touched — still reads and
// still honours a read deadline.
func TestHandOffBorrowsDescriptor(t *testing.T) {
	client, accepted := tcpPair(t)
	send, recv := unixPair(t)
	fe := &FrontEnd{links: []*beLink{{id: 0, handoff: send}}}
	c := fe.newConn(accepted)
	c.id = 77
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

	// A node with no handoff socket is an error, not a nil dereference.
	fe.links[0].handoff = nil
	if err := fe.handOff(c, 0); err == nil {
		t.Error("handOff without a handoff socket succeeded")
	}
}

// handoffAllocBudget is what one handoff costs in allocations, both ends
// together, as measured: the front-end's RawConn (1) and the back-end's
// os.File (2). It was 22 when the front-end dupped the socket into an
// *os.File and the back-end dupped that again into a net.Conn.
const handoffAllocBudget = 3

func TestHandoffAllocs(t *testing.T) {
	_, accepted := tcpPair(t)
	send, recv := unixPair(t)
	fe := &FrontEnd{links: []*beLink{{id: 0, handoff: send}}}
	c := fe.newConn(accepted)
	got := testing.AllocsPerRun(200, func() {
		c.id++
		if err := fe.handOff(c, 0); err != nil {
			t.Fatal(err)
		}
		id, f, err := RecvConnFD(recv)
		if err != nil || id != c.id {
			t.Fatalf("received connection %d, %v, want %d", id, err, c.id)
		}
		f.Close()
	})
	if got > handoffAllocBudget {
		t.Errorf("handoff: %v allocs per connection (send + receive + close), budget %d", got, handoffAllocBudget)
	}
}

// stubBackend accepts a front-end's control session and handoff socket and
// does nothing with what arrives but report it: control lines as they are
// read, handed-off descriptors raw, with their file status flags, and never
// read, written or wrapped.
type stubBackend struct {
	ep    BackendEndpoints
	lines chan string
	fds   chan rawHandoff
}

// rawHandoff is a received descriptor and its file status flags (F_GETFL).
type rawHandoff struct{ fd, flags int }

func newStubBackend(t *testing.T) *stubBackend {
	t.Helper()
	ctrlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrlLn.Close() })
	path := filepath.Join(t.TempDir(), "stub.sock")
	hoLn, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hoLn.Close() })
	sb := &stubBackend{
		ep:    BackendEndpoints{Ctrl: ctrlLn.Addr().String(), Handoff: path},
		lines: make(chan string, 16),
		fds:   make(chan rawHandoff, 16),
	}
	go func() {
		conn, err := ctrlLn.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			sb.lines <- sc.Text()
		}
	}()
	go func() {
		conn, err := hoLn.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			hdr := make([]byte, handoffHeaderBytes)
			oob := make([]byte, syscall.CmsgSpace(4))
			_, oobn, _, _, err := conn.(*net.UnixConn).ReadMsgUnix(hdr, oob)
			if err != nil {
				return
			}
			cmsgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
			if err != nil || len(cmsgs) != 1 {
				return
			}
			got, err := syscall.ParseUnixRights(&cmsgs[0])
			if err != nil || len(got) != 1 {
				return
			}
			flags, _, _ := syscall.Syscall(syscall.SYS_FCNTL, uintptr(got[0]), syscall.F_GETFL, 0)
			sb.fds <- rawHandoff{got[0], int(flags)}
		}
	}()
	return sb
}

func (sb *stubBackend) line(t *testing.T, within time.Duration) string {
	t.Helper()
	select {
	case l := <-sb.lines:
		return l
	case <-time.After(within):
		t.Fatalf("no control message within %v", within)
		return ""
	}
}

// The handoff leaves the client socket's mode alone: the descriptor the
// back-end receives is still non-blocking before anything wraps it, and the
// front-end's reads of the connection still honour their deadlines — it
// closes an idle connection on time even if the back-end never touches
// the socket. (Taking the descriptor out with File and Fd cleared
// O_NONBLOCK on the shared socket until the back-end's net.FileConn set it
// again; with this back-end, for good: the front-end's read then ignored the
// idle timeout and held a thread.)
func TestHandoffLeavesSocketNonBlocking(t *testing.T) {
	const idle = 200 * time.Millisecond
	sb := newStubBackend(t)
	fe, err := NewFrontEnd(FrontEndConfig{
		Nodes: 1, Policy: "lard", Mechanism: core.SingleHandoff,
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
	if _, err := io.WriteString(client, "GET /x HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}

	select {
	case got := <-sb.fds:
		defer syscall.Close(got.fd)
		if got.flags&syscall.O_NONBLOCK == 0 {
			t.Errorf("handed-off socket arrived in blocking mode (flags %#x)", got.flags)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no handoff arrived")
	}
	if hello := sb.line(t, 10*time.Second); hello != "HELLO CTRL" {
		t.Fatalf("control session opened with %q", hello)
	}
	req := sb.line(t, 10*time.Second)
	f := strings.Fields(req)
	if len(f) != 7 || f[0] != "REQ" || f[6] != "/x" {
		t.Fatalf("control message %q, want the request", req)
	}
	forwarded := time.Now()
	if got, want := sb.line(t, idle+5*time.Second), "CLOSE "+f[1]; got != want {
		t.Fatalf("control message %q, want %q", got, want)
	}
	if took := time.Since(forwarded); took < idle/2 {
		t.Errorf("idle connection closed after %v, idle timeout is %v", took, idle)
	}
	for deadline := time.Now().Add(5 * time.Second); fe.Engine().Active() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open at the dispatcher after CLOSE", fe.Engine().Active())
		}
		time.Sleep(time.Millisecond)
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
	good := appendHandoffHeader(nil, 5)
	for _, tc := range []struct {
		name   string
		hdr    []byte
		copies int
	}{
		{"two descriptors", good, 2},
		{"more descriptors than fit (MSG_CTRUNC)", good, 3},
		{"no descriptor", good, 0},
		{"non-digit header", []byte("0000000000000000x005"), 1},
		{"overflowing header", []byte("99999999999999999999"), 1},
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

// FuzzHandoffHeader: the header parser takes bytes from a socket. Every ID
// round-trips through appendHandoffHeader; what the parser accepts is
// exactly what the encoder writes — twenty digits, no overflow.
func FuzzHandoffHeader(f *testing.F) {
	f.Add([]byte("00000000000000000077"), int64(77))
	f.Add([]byte("09223372036854775807"), int64(math.MaxInt64))
	f.Add([]byte("09223372036854775808"), int64(0))
	f.Add([]byte("99999999999999999999"), int64(1))
	f.Add([]byte("0000000000000000x077"), int64(1<<40|9))
	f.Add([]byte("-0000000000000000077"), int64(-1))
	f.Add([]byte("77"), int64(10))
	f.Add([]byte{}, int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, hdr []byte, n int64) {
		if n >= 0 {
			enc := appendHandoffHeader(nil, core.ConnID(n))
			if got, ok := parseHandoffHeader(enc); !ok || got != core.ConnID(n) || len(enc) != handoffHeaderBytes {
				t.Fatalf("ID %d encodes as %q, which parses as %d, %v", n, enc, got, ok)
			}
		}
		id, ok := parseHandoffHeader(hdr)
		if !ok {
			return
		}
		if id < 0 {
			t.Fatalf("accepted %q as negative ID %d", hdr, id)
		}
		if want, err := strconv.ParseUint(string(hdr), 10, 63); err != nil || uint64(id) != want {
			t.Fatalf("accepted %q as %d; strconv says %d, %v", hdr, id, want, err)
		}
		if back := appendHandoffHeader(nil, id); string(back) != string(hdr) {
			t.Fatalf("accepted %q, which re-encodes as %q", hdr, back)
		}
	})
}
