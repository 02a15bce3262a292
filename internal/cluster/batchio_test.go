package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/httpmsg"
	"phttp/internal/server"
)

// Tests of the batch-granular I/O property itself — how many writes a
// pipelined batch costs on each hop — and of the allocation budget of a
// whole pipelined connection. They count writes and allocations, never
// time.

// writeLog is a net.Conn wrapper recording every Write it passes through.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, append([]byte(nil), p...))
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// take returns the writes recorded since the last call.
func (w *writeLog) take() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := w.writes
	w.writes = nil
	return out
}

func batchCatalog(n int, size int64) (map[core.Target]int64, []core.Target) {
	catalog := make(map[core.Target]int64, n)
	targets := make([]core.Target, n)
	for i := range targets {
		targets[i] = core.Target(fmt.Sprintf("/doc/%03d", i))
		catalog[targets[i]] = size
	}
	return catalog, targets
}

func batchCluster(t testing.TB, nodes int, pol string, mech core.Mechanism, catalog map[core.Target]int64) *Cluster {
	t.Helper()
	cfg := DefaultConfig(nodes, catalog)
	cfg.Policy = pol
	cfg.Mechanism = mech
	cfg.SimulateCPU = false
	cfg.Disk = server.DiskParams{}
	cfg.CacheBytes = 64 << 20
	// The client writes a batch in one write, which loopback delivers
	// whole; the window only ends the batch.
	cfg.BatchWindow = 2 * time.Millisecond
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// pipeline writes the requests as one batch and reads their responses,
// returning status and body length of each.
func pipeline(t testing.TB, conn net.Conn, br *bufio.Reader, targets ...core.Target) (statuses []int, sizes []int64) {
	t.Helper()
	var batch bytes.Buffer
	for _, tgt := range targets {
		fmt.Fprintf(&batch, "GET %s HTTP/1.1\r\nHost: cluster\r\n\r\n", tgt)
	}
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := conn.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for range targets {
		status, size := readResponse(t, br)
		statuses = append(statuses, status)
		sizes = append(sizes, size)
	}
	return statuses, sizes
}

// readResponse reads one response off br, body included.
func readResponse(t testing.TB, br *bufio.Reader) (status int, size int64) {
	t.Helper()
	resp, err := httpmsg.ReadResponse(br)
	if err != nil {
		t.Fatalf("response head: %v", err)
	}
	if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
		t.Fatalf("response body: %v", err)
	}
	return resp.Status, resp.ContentLength
}

// logControlWrites interposes a writeLog on every control link of the
// front-end.
func logControlWrites(fe *FrontEnd) []*writeLog {
	logs := make([]*writeLog, len(fe.links))
	for i, l := range fe.links {
		l.ctrlMu.Lock()
		logs[i] = &writeLog{Conn: l.ctrl}
		l.ctrl = logs[i]
		l.ctrlMu.Unlock()
	}
	return logs
}

// With handoff or back-end forwarding a batch is one control write, to the
// handling node, whatever the batch's size and wherever its documents live.
// The first batch is the handoff's sendmsg (TestHandoffRidesFirstBatch reads
// it at a stub back-end); the log, which a handoff cannot go through, is
// interposed behind it.
func TestFrontEndOneControlWritePerBatch(t *testing.T) {
	for _, tc := range []struct {
		policy string
		mech   core.Mechanism
	}{{"extlard", core.BEForwarding}, {"lard", core.SingleHandoff}} {
		t.Run(tc.mech.String(), func(t *testing.T) {
			catalog, targets := batchCatalog(32, 300)
			cl := batchCluster(t, 3, tc.policy, tc.mech, catalog)

			conn, err := net.Dial("tcp", cl.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			pipeline(t, conn, br, targets[24:28]...)
			logs := logControlWrites(cl.FE)
			handling := -1
			for b, size := range []int{4, 1, 7} {
				pipeline(t, conn, br, targets[b*8:b*8+size]...)
				for n, log := range logs {
					writes := log.take()
					if len(writes) == 0 {
						continue
					}
					if handling < 0 {
						handling = n
					}
					if n != handling {
						t.Fatalf("batch %d: control write to node %d, handling node is %d", b, n, handling)
					}
					if len(writes) != 1 {
						t.Fatalf("batch %d of %d requests: %d control writes, want 1: %q", b, size, len(writes), writes)
					}
					if got := bytes.Count(writes[0], []byte("REQ ")); got != size || bytes.Count(writes[0], []byte("\n")) != size {
						t.Errorf("batch %d: the write carries %d REQ lines, want %d: %q", b, got, size, writes[0])
					}
				}
			}
			if handling < 0 {
				t.Fatal("no control write seen")
			}
		})
	}
}

// A request pipelined behind one that ends the connection (Connection:
// close) is not dispatched: the client gets one response, then the end of
// the stream, and the back-end, which ends the stream behind that response,
// is never asked to write into it.
func TestNoDispatchAfterConnectionClose(t *testing.T) {
	catalog, targets := batchCatalog(2, 300)
	cl := batchCluster(t, 1, "lard", core.SingleHandoff, catalog)
	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: cluster\r\nConnection: close\r\n\r\nGET %s HTTP/1.1\r\nHost: cluster\r\n\r\n", targets[0], targets[1]); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if status, _ := readResponse(t, br); status != 200 {
		t.Fatalf("status %d", status)
	}
	if b, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the last response: byte %q, %v; want the end of the stream", b, err)
	}
	conn.Close()
	for deadline := time.Now().Add(10 * time.Second); cl.FE.Engine().Active() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the connection is still open at the front-end")
		}
	}
	if got := cl.FE.Requests(); got != 1 {
		t.Errorf("FE.Requests() = %d, want 1", got)
	}
	if got := cl.BEs[0].Aborted(); got != 0 {
		t.Errorf("Aborted() = %d, want 0", got)
	}
}

// A batch window the runtime cannot time (below timerResolution) is not
// waited out: the batch is what has arrived when its last request is parsed,
// and the only deadline a read waits on is the idle timeout. A window the
// runtime can time is waited out after the last buffered request.
func TestShortBatchWindowIsNotTimed(t *testing.T) {
	eng, err := dispatch.NewEngine(dispatch.Spec{Policy: "wrr", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	const idle = time.Minute
	for _, tc := range []struct {
		window time.Duration
		waits  int // waits on the poller, for the window only: the burst is in
	}{{50 * time.Microsecond, 0}, {timerResolution, 1}} {
		client, accepted := tcpPair(t)
		fe := &FrontEnd{cfg: FrontEndConfig{IdleTimeout: idle, BatchWindow: tc.window}, eng: eng}
		c := clientRecord(t, fdOf(t, accepted))
		const burst = "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n"
		if _, err := io.WriteString(client, burst); err != nil {
			t.Fatal(err)
		}
		if err := fe.readBatch(c); err != nil {
			t.Fatalf("window %v: %v", tc.window, err)
		}
		if len(c.batch) != 2 {
			t.Errorf("window %v: batch of %d requests, want the 2 sent in one write", tc.window, len(c.batch))
		}
		if int(c.sock.waits.Load()) != tc.waits {
			t.Errorf("window %v: %d waits on an empty buffer, want %d", tc.window, c.sock.waits.Load(), tc.waits)
		}
	}
}

// Relaying sends each request to its assigned node: a batch is one write
// per destination it touches, carrying that destination's requests (and a
// RELAY ahead of them the first time).
func TestFrontEndOneControlWritePerRelayDestination(t *testing.T) {
	catalog, targets := batchCatalog(32, 300)
	cl := batchCluster(t, 3, "wrr", core.RelayFrontEnd, catalog)
	logs := logControlWrites(cl.FE)

	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	opened := make(map[int]bool)
	for b := 0; b < 3; b++ {
		const size = 8
		statuses, _ := pipeline(t, conn, br, targets[b*size:(b+1)*size]...)
		for i, s := range statuses {
			if s != 200 {
				t.Fatalf("batch %d response %d: status %d", b, i, s)
			}
		}
		reqs := 0
		for n, log := range logs {
			writes := log.take()
			if len(writes) > 1 {
				t.Fatalf("batch %d: %d control writes to node %d, want at most 1: %q", b, len(writes), n, writes)
			}
			if len(writes) == 0 {
				continue
			}
			reqs += bytes.Count(writes[0], []byte("REQ "))
			if hasRelay := bytes.HasPrefix(writes[0], []byte("RELAY ")); hasRelay == opened[n] {
				t.Errorf("batch %d node %d: RELAY present = %v, already opened = %v", b, n, hasRelay, opened[n])
			}
			opened[n] = true
		}
		if reqs != size {
			t.Errorf("batch %d: %d REQ lines across all nodes, want %d", b, reqs, size)
		}
	}
}

// handedOff hands the accepted end of a fresh TCP connection to be as
// connection id, with a HANDOFF on a session of its own, and returns the
// client's end and the clientSock of the worker the connection is
// attached to, whose counters the tests read.
func handedOff(t *testing.T, be *Backend, id core.ConnID) (net.Conn, *clientSock) {
	t.Helper()
	client, accepted := tcpPair(t)
	sendWith(t, dialSession(t, be), accepted, fmt.Sprintf("HANDOFF %d\n", id))
	client.SetReadDeadline(time.Now().Add(30 * time.Second))
	return client, workerSock(t, be, id)
}

// workerSock waits until connection id is attached to its worker's
// clientSock, and returns that.
func workerSock(t *testing.T, be *Backend, id core.ConnID) *clientSock {
	t.Helper()
	var s *clientSock
	waitFor(t, fmt.Sprintf("connection %d on a worker", id), func() bool {
		be.connMu.Lock()
		defer be.connMu.Unlock()
		if c := be.conns[id]; c != nil {
			c.outMu.Lock()
			s = c.sock
			c.outMu.Unlock()
		}
		return s != nil
	})
	return s
}

// requests queues a keep-alive request for each of names on connection id
// of be, as the control loop does, and wakes the connection once they are
// all queued.
func requests(be *Backend, id core.ConnID, names ...core.Target) {
	var c *beConn
	for seq, name := range names {
		dc := be.store.lookup([]byte(name))
		if dc == nil {
			dc = &doc{target: name, missing: true}
		}
		c = be.enqueue(id, beReq{kind: kindReq, proto: proto11, keep: true, seq: seq, remote: core.NoNode, doc: dc})
	}
	c.q.signal()
}

// The back-end answers what one drain of a connection's queue produced with
// one write on the client socket — here: a batch queued on a connection
// just handed off, then a batch queued while the connection idles — and
// error responses travel in the same write, in order. Neither a cache miss
// that costs no time (the second batch's documents are not cached; the
// store has no disk model) nor anything else splits the write, and a
// client that reads never makes a write wait.
func TestBackendOneClientWritePerDrain(t *testing.T) {
	catalog, targets := batchCatalog(8, 300)
	be, err := NewBackend(BackendConfig{
		ID: 0, Catalog: catalog, CacheBytes: 1 << 20,
		HandoffSocket: t.TempDir() + "/be.sock",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	for _, tgt := range targets[:4] {
		be.store.Open(tgt)
	}

	const id = 7
	client, sock := handedOff(t, be, id)
	br := bufio.NewReader(client)
	drains := int32(0)
	drain := func(what string, want ...int) {
		t.Helper()
		for i, status := range want {
			if got, _ := readResponse(t, br); got != status {
				t.Errorf("%s, response %d: status %d, want %d", what, i, got, status)
			}
		}
		if drains++; sock.writes.Load() != drains {
			t.Errorf("%s: %d writes for %d drains", what, sock.writes.Load(), drains)
		}
	}
	requests(be, id, targets[0], targets[1], targets[2], targets[3])
	drain("first batch", 200, 200, 200, 200)
	requests(be, id, targets[4], "/missing", targets[5]) // as the control loop does after a batch
	drain("second batch", 200, 404, 200)
	client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := br.ReadByte(); err == nil {
		t.Errorf("the client socket carries more than the seven responses")
	}
	if got := be.Served(); got != 6 {
		t.Errorf("Served() = %d, want 6 (error responses are not counted)", got)
	}
	if _, misses := be.store.Counters(); misses != 6 {
		t.Errorf("%d cache misses, want 6 (four warmed, two served cold)", misses)
	}
	if n := sock.waits.Load(); n != 0 {
		t.Errorf("%d writes waited on a client that reads, want none", n)
	}
	if n := sock.deadlines.Load(); n != 0 {
		t.Errorf("%d deadlines set on a connection whose queue stayed shallow, want none", n)
	}
	be.enqueue(id, beReq{kind: kindClose}).q.signal()
}

// A miss that has a disk read to wait for puts out the responses already
// buffered first: the client is not kept waiting for them behind the disk.
func TestBackendFlushesBeforeDiskRead(t *testing.T) {
	catalog, targets := batchCatalog(2, 300)
	be, err := NewBackend(BackendConfig{
		ID: 0, Catalog: catalog, CacheBytes: 1 << 20,
		Disk:          server.DiskParams{Position: 20000}, // 20 ms a read
		HandoffSocket: t.TempDir() + "/be.sock",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	be.store.Open(targets[0])

	client, sock := handedOff(t, be, 9)
	requests(be, 9, targets...) // cached, then not
	br := bufio.NewReader(client)
	for i := range targets {
		if status, _ := readResponse(t, br); status != 200 {
			t.Fatalf("response %d: status %d, want 200", i, status)
		}
	}
	if n := sock.writes.Load(); n != 2 {
		t.Errorf("two responses took %d writes, want 2: one before the disk read, one after", n)
	}
	be.enqueue(9, beReq{kind: kindClose}).q.signal()
}

// A body beyond the largest chunk class takes the chunk path in writes of
// that class, as before batching, where it has no content page (as where
// there is no splice): coalescing must not shrink the writes of large
// transfers.
func TestBackendLargeBodyKeepsWriteSize(t *testing.T) {
	const size = 300 << 10
	be, err := NewBackend(BackendConfig{
		ID: 0, Catalog: map[core.Target]int64{"/big": size, "/small": 200}, CacheBytes: 1 << 20,
		HandoffSocket: t.TempDir() + "/be.sock",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	be.store.releasePages() // no content page: the chunk path
	be.store.Open("/big")
	be.store.Open("/small")
	client, sock := handedOff(t, be, 9)
	requests(be, 9, "/small", "/big", "/small")
	total := 0
	br := bufio.NewReader(client)
	for i := 0; i < 3; i++ {
		resp, err := httpmsg.ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
			t.Fatalf("response %d body: %v", i, err)
		}
		total += len(fmt.Sprintf("HTTP/1.1 200 OK\r\nServer: phttp-cluster\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n", resp.ContentLength)) + int(resp.ContentLength)
	}
	largest := chunkClasses[len(chunkClasses)-1]
	if n, want := int(sock.writes.Load()), (total+largest-1)/largest; n != want {
		t.Errorf("%d bytes took %d writes, want %d: full %d-byte chunks until the last", total, n, want, largest)
	}
	be.enqueue(9, beReq{kind: kindClose}).q.signal()
}

// connAllocBudget is the recorded ceiling on heap allocations for one warmed
// P-HTTP connection of three 4-request batches, per request, across every
// goroutine of the process: the test's own client (dial, three writes,
// reads) and the cluster (accept, handoff, dispatch, control messages,
// responses, teardown). The change that introduced batch-granular I/O
// measured 3.9 here; its parent commit, 27.2. The ceiling leaves room for the
// runtime's own noise, not for a per-request allocation to return.
const connAllocBudget = 8

func TestPipelinedConnectionAllocBudget(t *testing.T) {
	catalog, targets := batchCatalog(12, 300)
	cl := batchCluster(t, 3, "extlard", core.BEForwarding, catalog)
	var batches [3][]byte
	for b := range batches {
		for _, tgt := range targets[b*4 : b*4+4] {
			batches[b] = fmt.Appendf(batches[b], "GET %s HTTP/1.1\r\nHost: cluster\r\n\r\n", tgt)
		}
	}
	// Every response is the same size, so the client can count bytes
	// instead of parsing.
	respBytes := len(fmt.Sprintf("HTTP/1.1 200 OK\r\nServer: phttp-cluster\r\nContent-Length: 300\r\nConnection: keep-alive\r\n\r\n")) + 300
	buf := make([]byte, 4*respBytes)
	addr := cl.Addr()
	closed := cl.FE.Engine().Closes()
	one := func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(20 * time.Second))
		for _, batch := range batches {
			if _, err := conn.Write(batch); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, buf); err != nil {
				t.Fatal(err)
			}
		}
		conn.Close()
		// Wait for the front-end to finish with the connection, so its
		// teardown is counted in this run and its record is back in the
		// pool for the next.
		closed++
		for cl.FE.Engine().Closes() < closed {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := 0; i < 20; i++ {
		one() // warm: pools, interner, caches, document patterns
	}
	perConn := testing.AllocsPerRun(100, one)
	perReq := perConn / 12
	t.Logf("%.1f allocations per connection, %.2f per request", perConn, perReq)
	if perReq > connAllocBudget {
		t.Errorf("%.2f allocations per request on a warmed pipelined connection, budget %d", perReq, connAllocBudget)
	}
}

// rawClient is an HTTP/1.0 client made of raw system calls on a blocking
// socket, so that it allocates nothing: connect, one request, the response
// read to the end of the stream into one buffer, close.
type rawClient struct {
	sa     *syscall.SockaddrInet4
	tv     syscall.Timeval
	rcvbuf int // the socket's SO_RCVBUF, when not 0
	buf    []byte
}

func newRawClient(t testing.TB, addr string) *rawClient {
	t.Helper()
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		t.Fatal(err)
	}
	sa := &syscall.SockaddrInet4{Port: ta.Port}
	copy(sa.Addr[:], ta.IP.To4())
	return &rawClient{sa: sa, tv: syscall.NsecToTimeval(int64(20 * time.Second)), buf: make([]byte, 64<<10)}
}

// get sends req on a new connection and returns how many bytes came back.
func (rc *rawClient) get(t testing.TB, req []byte) int {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &rc.tv)
	if rc.rcvbuf != 0 {
		syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, rc.rcvbuf)
	}
	if err := syscall.Connect(fd, rc.sa); err != nil {
		t.Fatal(err)
	}
	if _, err := syscall.Write(fd, req); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		m, err := syscall.Read(fd, rc.buf)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if m == 0 {
			return n
		}
		n += m
	}
}

// servingSock sends req on a connection of its own and returns the
// clientSock of the back-end worker that answers it, caught while the
// response, too large for the socket, waits for the client to read.
func servingSock(t *testing.T, cl *Cluster, req []byte) *clientSock {
	t.Helper()
	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	var s *clientSock
	waitFor(t, "a back-end worker writing the response", func() bool {
		for _, be := range cl.BEs {
			be.connMu.Lock()
			for _, c := range be.conns {
				c.outMu.Lock()
				if c.sock != nil {
					s = c.sock
				}
				c.outMu.Unlock()
			}
			be.connMu.Unlock()
		}
		return s != nil
	})
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatal(err)
	}
	return s
}

// http10AllocBudget is the ceiling on heap allocations for one warmed
// HTTP/1.0 connection under single handoff, across every goroutine of the
// process: accept, dispatch, handoff, response and teardown on both nodes,
// for a client that allocates nothing. It was 4 while each connection
// started a goroutine on each node and the front-end wrapped it in an
// *os.File.
const http10AllocBudget = 0.5

// The budget holds for a response that fills the client socket too, on
// the page path and on the chunk path: its write waits in the back-end
// worker's epoll set, opened once, where it once made an *os.File of the
// socket (3 allocations) and, on the page path, took its RawConn.
func TestHTTP10ConnectionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool mean nothing under -race")
	}
	for _, tc := range []struct {
		name   string
		size   int64
		rcvbuf int
		pages  bool
		runs   int
	}{
		{"small", 300, 0, true, 200},
		// 8 MB is past the largest send buffer Linux grows to (tcp_wmem),
		// with the client's window.
		{"full-socket-page", 8 << 20, 16 << 10, true, 50},
		{"full-socket-chunk", 8 << 20, 16 << 10, false, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			catalog, targets := batchCatalog(4, tc.size)
			cl := batchCluster(t, 2, "lard", core.SingleHandoff, catalog)
			if !tc.pages {
				for _, be := range cl.BEs {
					be.store.releasePages() // no content page: every body takes the chunk path
				}
			}
			var reqs [][]byte
			for _, tgt := range targets {
				reqs = append(reqs, fmt.Appendf(nil, "GET %s HTTP/1.0\r\n\r\n", tgt))
			}
			want := len(fmt.Sprintf("HTTP/1.0 200 OK\r\nServer: phttp-cluster\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", tc.size)) + int(tc.size)
			client := newRawClient(t, cl.Addr())
			client.rcvbuf = tc.rcvbuf
			closed, i := cl.FE.Engine().Closes(), 0
			settle := func() {
				closed++
				for cl.FE.Engine().Closes() < closed {
					time.Sleep(100 * time.Microsecond)
				}
			}
			var sock *clientSock
			if tc.rcvbuf != 0 {
				sock = servingSock(t, cl, reqs[0])
				settle()
			}
			one := func() {
				if n := client.get(t, reqs[i%len(reqs)]); n != want {
					t.Fatalf("response of %d bytes, want %d", n, want)
				}
				i++
				settle()
			}
			for range 20 {
				one() // warm: workers, pools, interner, mapping, pages
			}
			var waits int32
			if sock != nil {
				waits = sock.waits.Load()
			}
			perConn := testing.AllocsPerRun(tc.runs, one)
			t.Logf("%.2f allocations per HTTP/1.0 connection", perConn)
			if sock != nil && sock.waits.Load() == waits {
				t.Fatal("no response filled its socket: the test measured nothing")
			}
			if perConn > http10AllocBudget {
				t.Errorf("%.2f allocations per warmed HTTP/1.0 connection, budget %v", perConn, http10AllocBudget)
			}
		})
	}
}

// TestLateralFetchAllocs pins the allocations of one lateral fetch of a
// cached 64 KB document, across every goroutine of the process: the
// fetching side (FETCH line, reply, body read from a pooled connection)
// and the serving back-end (line parsed in place, target resolved in the
// read buffer, SIZE line and body). The fetch spoke HTTP before, at 15.
func TestLateralFetchAllocs(t *testing.T) {
	const size = 64 << 10
	be, err := NewBackend(BackendConfig{
		ID: 1, Catalog: map[core.Target]int64{"/doc": size}, CacheBytes: 1 << 20,
		HandoffSocket: filepath.Join(t.TempDir(), "be1.sock"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	pool := newPeerPool(be.PeerAddr())
	defer pool.close()
	body := make([]byte, size)
	fetch := func() {
		pc := <-pool
		defer func() { pool <- pc }()
		n, err := pc.fetch("/doc")
		if err != nil || n != size {
			t.Fatalf("fetch: %d bytes, %v", n, err)
		}
		if _, err := io.ReadFull(&pc.body, body); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * peerPoolSize {
		fetch() // warm: dial, cache, content pattern
	}
	if !bytes.Equal(body[:64], []byte(contentChunk("/doc")[:64])) {
		t.Fatalf("fetched body starts %q", body[:64])
	}
	allocs := testing.AllocsPerRun(100, fetch)
	t.Logf("%.2f allocations per lateral fetch", allocs)
	if allocs > 2 {
		t.Errorf("%.2f allocations per lateral fetch, want <= 2", allocs)
	}
}

// relayCluster starts a one-node relaying cluster over four documents of
// docSize bytes, with no simulated CPU or disk.
func relayCluster(t *testing.T, docSize int64, idle time.Duration) (*Cluster, []core.Target) {
	t.Helper()
	catalog, targets := batchCatalog(4, docSize)
	cfg := DefaultConfig(1, catalog)
	cfg.Policy = "wrr"
	cfg.Mechanism = core.RelayFrontEnd
	cfg.SimulateCPU = false
	cfg.Disk = server.DiskParams{}
	cfg.CacheBytes = 64 << 20
	cfg.IdleTimeout = idle
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, targets
}

// stallingClient connects to cl and pipelines n requests, which it will not
// read the responses of. Its receive buffer is held small: the kernel would
// otherwise grow it to megabytes and take in a burst that should stall.
func stallingClient(t *testing.T, cl *Cluster, targets []core.Target, n int) net.Conn {
	t.Helper()
	d := net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error {
		return rc.Control(func(fd uintptr) {
			syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 16<<10)
		})
	}}
	conn, err := d.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var burst bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&burst, "GET %s HTTP/1.1\r\nHost: cluster\r\n\r\n", targets[i%len(targets)])
	}
	conn.SetWriteDeadline(time.Now().Add(20 * time.Second))
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatalf("sending the burst: %v", err)
	}
	return conn
}

// awaitNoRelays waits until the front-end holds no relayed connection.
func awaitNoRelays(t *testing.T, fe *FrontEnd, within time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(within); ; time.Sleep(10 * time.Millisecond) {
		fe.relayMu.Lock()
		routes := len(fe.relays)
		fe.relayMu.Unlock()
		if routes == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("front-end still holds %d relayed connections", routes)
		}
	}
}

// readToClose reads a stalled client's stream to its end, which must come
// short of the full burst of want bytes.
func readToClose(t *testing.T, conn net.Conn, want int64) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled relayed client still open after %d bytes", n)
	}
	if n >= want {
		t.Errorf("stalled relayed client was served in full (%d bytes)", n)
	}
}

// A relayed client that pipelines without reading ends up refused by the
// back-end (its frames stop leaving, its queue reaches the bound), which has
// no client socket to close: it tells the front-end, and the front-end
// closes the client and forgets the requests it was still waiting on.
func TestRelayedStalledClientIsClosed(t *testing.T) {
	// The idle timeout must not be what closes the client.
	cl, targets := relayCluster(t, 16<<10, 10*time.Minute)
	// 12000 requests: more than the queue bound once responses (190 MB,
	// far beyond every socket buffer on the way) have stopped moving.
	stalled := stallingClient(t, cl, targets, 12000)
	for deadline := time.Now().Add(20 * time.Second); cl.BEs[0].Aborted() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("back-end never refused the stalled relayed connection")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Reading only now. The stream ends short of the full burst.
	readToClose(t, stalled, 12000*(16<<10))

	// Nothing of it is left at the front-end, and the cluster serves on.
	awaitNoRelays(t, cl.FE, 10*time.Second)
	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	statuses, _ := pipeline(t, conn, bufio.NewReader(conn), targets[0], targets[1])
	if len(statuses) != 2 || statuses[0] != 200 || statuses[1] != 200 {
		t.Errorf("after the refusal: statuses %v", statuses)
	}
}

// A relayed client that pipelines and reads nothing costs only itself: its
// responses wait at the front-end for its own goroutine to write them, and
// the session it shares with every other relayed connection of the node
// moves on. A neighbour on the same back-end is answered at once.
func TestRelayedStalledClientDoesNotStallNeighbours(t *testing.T) {
	cl, targets := relayCluster(t, 64<<10, 6*time.Second)
	const burstReqs = 200 // 12.8 MB of responses
	stallingClient(t, cl, targets, burstReqs)
	// Let the back-end answer the burst (or get as far as it can).
	for deadline := time.Now().Add(time.Second); cl.BEs[0].Served() < burstReqs && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}

	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 20; i++ {
		start := time.Now()
		statuses, _ := pipeline(t, conn, br, targets[i%len(targets)])
		if took := time.Since(start); statuses[0] != 200 || took >= 100*time.Millisecond {
			t.Fatalf("round trip %d beside a stalled client: status %d in %v, want 200 in under 100ms", i, statuses[0], took)
		}
	}
}

// A relayed client that reads nothing is closed by the front-end, by the
// back-end's rule: once a write to it has moved nothing for stallGrace
// while maxPending or more of its responses wait, and otherwise for
// IdleTimeout, as a client that sends nothing is. Neither batch reaches the
// back-end's own bound.
func TestRelayedNonReaderIsClosedByFrontEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		reqs int
		idle time.Duration
	}{
		{"shallow", 200, 300 * time.Millisecond},
		// Deep enough that maxPending still wait once the socket buffers
		// on the way (about 4 MB) are full; the idle timeout never fires.
		{"deep", 400, 10 * time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, targets := relayCluster(t, 64<<10, tc.idle)
			stalled := stallingClient(t, cl, targets, tc.reqs)
			for deadline := time.Now().Add(10 * time.Second); cl.BEs[0].Served() < int64(tc.reqs); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("back-end served %d of %d", cl.BEs[0].Served(), tc.reqs)
				}
			}
			// An attempt that moved some bytes before it stalled earns
			// another.
			awaitNoRelays(t, cl.FE, 2*min(tc.idle, stallGrace)+5*time.Second)
			readToClose(t, stalled, int64(tc.reqs)*(64<<10))
			if n := cl.BEs[0].Aborted(); n != 0 {
				t.Errorf("the back-end refused %d connections", n)
			}
		})
	}
}

// A relayed request whose response never comes — its node lost it without
// being confirmed Down — costs the client IdleTimeout, as waiting and
// sending nothing always has: the front-end closes the connection.
func TestRelayedLostResponseTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { // a back-end that takes every line and answers none
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn)
	}()
	fe, err := NewFrontEnd(FrontEndConfig{
		Nodes: 1, Policy: "wrr", Mechanism: core.RelayFrontEnd,
		IdleTimeout: 200 * time.Millisecond, BatchWindow: time.Millisecond,
		HeartbeatTimeout: time.Minute, // the stub reports no disk queue
	}, []BackendEndpoints{{Ctrl: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fe.Close)
	client, err := net.Dial("tcp", fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if _, err := io.WriteString(client, "GET /x HTTP/1.1\r\nHost: cluster\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read %d bytes, %v; want the connection closed", n, err)
	}
	awaitNoRelays(t, fe, 5*time.Second)
}

// The request ring starts empty, keeps order across growth and wrap-around,
// takes a burst deeper than maxPending, refuses at maxQueued and once shut,
// and gives up the storage of a deep burst when its connection retires.
func TestReqQueueBounds(t *testing.T) {
	q := reqQueue{wake: make(chan struct{}, 1)}
	if q.buf != nil {
		t.Fatal("a new queue holds storage")
	}
	next := 0 // next seq expected out
	for i := 0; i < maxQueued; i++ {
		if q.push(beReq{kind: kindReq, seq: i}) == 0 {
			t.Fatalf("push %d refused below maxQueued (%d)", i, maxQueued)
		}
		if i%3 == 2 && i < 3*maxPending { // interleave pops so the ring wraps
			r, ok, _ := q.pop()
			if !ok || r.seq != next {
				t.Fatalf("pop = seq %d, %v; want %d", r.seq, ok, next)
			}
			next++
		}
	}
	for q.n < maxQueued {
		q.push(beReq{kind: kindReq, seq: -1})
	}
	if q.push(beReq{kind: kindReq}) != 0 {
		t.Errorf("push accepted with %d queued", q.n)
	}
	for ; next < maxQueued; next++ {
		if r, ok, _ := q.pop(); !ok || r.seq != next {
			t.Fatalf("pop = seq %d, %v; want %d", r.seq, ok, next)
		}
	}
	if !q.shutdown() || q.shutdown() {
		t.Error("shutdown must report true exactly once")
	}
	if q.push(beReq{kind: kindReq}) != 0 {
		t.Error("push accepted after shutdown")
	}
	if _, ok, shut := q.pop(); ok || !shut {
		t.Error("pop after shutdown must report shut")
	}
	q.reset()
	if q.buf != nil || q.push(beReq{kind: kindReq}) == 0 {
		t.Error("reset must drop a deep ring and reopen the queue")
	}
}
