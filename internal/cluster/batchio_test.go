package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
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

// deadlineLog is a net.Conn wrapper recording every read deadline set.
type deadlineLog struct {
	net.Conn
	set []time.Time
}

func (d *deadlineLog) SetReadDeadline(t time.Time) error {
	d.set = append(d.set, t)
	return d.Conn.SetReadDeadline(t)
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
		waits  int // deadlines a read waited on besides the idle timeout
	}{{50 * time.Microsecond, 0}, {timerResolution, 1}} {
		client, accepted := tcpPair(t)
		log := &deadlineLog{Conn: accepted}
		fe := &FrontEnd{cfg: FrontEndConfig{IdleTimeout: idle, BatchWindow: tc.window}, eng: eng}
		c := fe.newConn(log)
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
		// The idle timeout first and none left behind; in between, one
		// deadline ahead of each further request — already buffered here,
		// so nothing waits on it — and one per wait on an empty buffer.
		set := log.set
		if len(set) < 2 || time.Until(set[0]) < idle/2 || !set[len(set)-1].IsZero() {
			t.Fatalf("window %v: read deadlines %v, want the idle timeout first and none last", tc.window, set)
		}
		if waits := len(set) - 2 - (len(c.batch) - 1); waits != tc.waits {
			t.Errorf("window %v: %d waits on an empty buffer, want %d (%d deadlines set)", tc.window, waits, tc.waits, len(set))
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

// scriptConn is the client socket of a back-end connection under test: it
// records writes and discards them.
type scriptConn struct {
	net.Conn  // nil: only Write, SetWriteDeadline and Close are used
	mu        sync.Mutex
	writes    [][]byte
	deadlines int // SetWriteDeadline calls
	wrote     chan struct{}
}

func (s *scriptConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.writes = append(s.writes, append([]byte(nil), p...))
	s.mu.Unlock()
	s.wrote <- struct{}{}
	return len(p), nil
}

func (s *scriptConn) Close() error { return nil }

func (s *scriptConn) SetWriteDeadline(time.Time) error {
	s.mu.Lock()
	s.deadlines++
	s.mu.Unlock()
	return nil
}

// handedOff creates connection id's record around client socket out, as a
// HANDOFF does.
func handedOff(be *Backend, id core.ConnID, out clientSocket) *beConn {
	be.connMu.Lock()
	defer be.connMu.Unlock()
	return be.connLocked(id, false, out)
}

// The back-end answers what one drain of a connection's queue produced with
// one write on the client socket — here: the batch the connection is handed
// off with, then a batch queued while the connection idles — and error
// responses travel in the same write, in order. Neither a cache miss that
// costs no time (the second batch's documents are not cached; the store has
// no disk model) nor anything else splits the write, and a write with a
// shallow queue behind it sets no deadline.
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
	queue := func(names ...core.Target) *beConn {
		var c *beConn
		for seq, name := range names {
			dc := be.store.lookup([]byte(name))
			if dc == nil {
				dc = &doc{target: name, missing: true}
			}
			c = be.enqueue(id, beReq{kind: kindReq, proto: proto11, keep: true, seq: seq, remote: core.NoNode, doc: dc})
		}
		return c
	}
	out := &scriptConn{wrote: make(chan struct{}, 16)}
	awaitWrite := func(what string) []byte {
		t.Helper()
		select {
		case <-out.wrote:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no write", what)
		}
		select {
		case <-out.wrote:
			t.Fatalf("%s: a second write", what)
		case <-time.After(50 * time.Millisecond):
		}
		out.mu.Lock()
		defer out.mu.Unlock()
		w := out.writes[len(out.writes)-1]
		return w
	}

	handedOff(be, id, out)
	queue(targets[0], targets[1], targets[2], targets[3]).q.signal()
	first := awaitWrite("first batch")
	if got := bytes.Count(first, []byte("HTTP/1.1 200 OK\r\n")); got != 4 {
		t.Errorf("first write carries %d responses, want 4", got)
	}

	queue(targets[4], "/missing", targets[5]).q.signal() // as the control loop does after a batch
	second := awaitWrite("second batch")
	br := bufio.NewReader(bytes.NewReader(second))
	for i, want := range []int{200, 404, 200} {
		if status, _ := readResponse(t, br); status != want {
			t.Errorf("second write, response %d: status %d, want %d", i, status, want)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("second write carries more than its three responses")
	}
	if got := be.Served(); got != 6 {
		t.Errorf("Served() = %d, want 6 (error responses are not counted)", got)
	}
	if _, misses := be.store.Counters(); misses != 6 {
		t.Errorf("%d cache misses, want 6 (four warmed, two served cold)", misses)
	}
	out.mu.Lock()
	if out.deadlines != 0 {
		t.Errorf("%d write deadlines set with never more than 4 requests waiting, want none", out.deadlines)
	}
	out.mu.Unlock()
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

	out := &scriptConn{wrote: make(chan struct{}, 4)}
	c := handedOff(be, 9, out)
	for seq, name := range targets { // cached, then not
		be.enqueue(9, beReq{kind: kindReq, proto: proto11, keep: true, seq: seq, remote: core.NoNode, doc: be.store.lookup([]byte(name))})
	}
	c.q.signal()
	for i := 0; i < 2; i++ {
		select {
		case <-out.wrote:
		case <-time.After(10 * time.Second):
			t.Fatalf("write %d of 2 did not happen", i+1)
		}
	}
	out.mu.Lock()
	defer out.mu.Unlock()
	for i, w := range out.writes {
		if got := bytes.Count(w, []byte("HTTP/1.1 200 OK\r\n")); got != 1 {
			t.Errorf("write %d carries %d responses, want 1", i, got)
		}
	}
}

// A body beyond the largest chunk class is written in chunks of that class,
// as before batching: coalescing must not shrink the writes of large
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
	be.store.Open("/big")
	be.store.Open("/small")
	out := &scriptConn{wrote: make(chan struct{}, 64)}
	c := handedOff(be, 9, out)
	for seq, name := range []string{"/small", "/big", "/small"} {
		be.enqueue(9, beReq{kind: kindReq, proto: proto11, keep: true, seq: seq, remote: core.NoNode, doc: be.store.lookup([]byte(name))})
	}
	c.q.signal()
	deadline := time.After(10 * time.Second)
	total := 0
	for total < size+400 {
		select {
		case <-out.wrote:
			out.mu.Lock()
			total = 0
			for _, w := range out.writes {
				total += len(w)
			}
			out.mu.Unlock()
		case <-deadline:
			t.Fatalf("only %d bytes written", total)
		}
	}
	out.mu.Lock()
	defer out.mu.Unlock()
	largest := chunkClasses[len(chunkClasses)-1]
	for i, w := range out.writes[:len(out.writes)-1] {
		if len(w) != largest {
			t.Errorf("write %d of %d is %d bytes, want full %d-byte chunks until the last", i, len(out.writes), len(w), largest)
		}
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

// A relayed client that pipelines without reading ends up refused by the
// back-end (its frames stop leaving, its queue reaches the bound), which has
// no client socket to close: it tells the front-end, and the front-end
// closes the client and forgets the requests it was still waiting on.
func TestRelayedStalledClientIsClosed(t *testing.T) {
	catalog, targets := batchCatalog(4, 16<<10)
	cfg := DefaultConfig(1, catalog)
	cfg.Policy = "wrr"
	cfg.Mechanism = core.RelayFrontEnd
	cfg.SimulateCPU = false
	cfg.Disk = server.DiskParams{}
	cfg.CacheBytes = 64 << 20
	cfg.IdleTimeout = 10 * time.Minute // the idle sweep must not be what closes the client
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	stalled, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	// 12000 requests: more than the queue bound once responses (190 MB,
	// far beyond every socket buffer on the way) have stopped moving.
	var burst bytes.Buffer
	for i := 0; i < 12000; i++ {
		fmt.Fprintf(&burst, "GET %s HTTP/1.1\r\nHost: cluster\r\n\r\n", targets[i%len(targets)])
	}
	stalled.SetWriteDeadline(time.Now().Add(20 * time.Second))
	if _, err := stalled.Write(burst.Bytes()); err != nil {
		t.Fatalf("sending the burst: %v", err)
	}
	for deadline := time.Now().Add(20 * time.Second); cl.BEs[0].Aborted() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("back-end never refused the stalled relayed connection")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Reading only now. The stream ends short of the full burst.
	stalled.SetReadDeadline(time.Now().Add(20 * time.Second))
	n, err := io.Copy(io.Discard, stalled)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled relayed client still open after %d bytes", n)
	}
	if n >= 12000*(16<<10) {
		t.Errorf("stalled relayed client was served in full (%d bytes)", n)
	}

	// Nothing of it is left at the front-end, and the cluster serves on.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		cl.FE.pendingMu.Lock()
		pending := len(cl.FE.pending)
		cl.FE.pendingMu.Unlock()
		cl.FE.relayMu.Lock()
		routes := len(cl.FE.relayConns)
		cl.FE.relayMu.Unlock()
		if pending == 0 && routes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front-end still holds %d pending-request sets and %d relay routes", pending, routes)
		}
	}
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
	for q.len() < maxQueued {
		q.push(beReq{kind: kindReq, seq: -1})
	}
	if q.push(beReq{kind: kindReq}) != 0 {
		t.Errorf("push accepted with %d queued", q.len())
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
