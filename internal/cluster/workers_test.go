package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/httpmsg"
	"phttp/internal/membership"
)

// busy is how many of p's workers are running a task.
func (p *workers[T]) busy() int32 { return p.alive.Load() - p.idle.Load() }

// Workers that stay idle for a whole period retire, those that worked in
// it stay, and done ends the rest; the WaitGroup sees every one leave.
func TestIdleWorkersRetire(t *testing.T) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	release := make(chan struct{})
	ran := make(chan int, 16)
	p := newWorkers(func(n int, next func() (int, bool)) {
		for ok := true; ok; n, ok = next() {
			ran <- n
			<-release
		}
	}, done, &wg)

	for i := range 4 {
		p.start(i) // none idle: four workers
	}
	for range 4 {
		<-ran
	}
	for range 4 {
		release <- struct{}{}
	}
	waitFor(t, "four idle workers", func() bool { return p.idle.Load() == 4 })
	if got := p.started.Load(); got != 4 {
		t.Fatalf("started %d workers for 4 concurrent tasks", got)
	}

	p.trim() // a period starts with four idle
	p.start(9)
	<-ran
	release <- struct{}{}
	waitFor(t, "the worker back to idle", func() bool { return p.busy() == 0 })
	p.trim() // three were idle throughout the period
	waitFor(t, "three retired", func() bool { return p.alive.Load() == 1 })
	if p.started.Load() != 4 || p.retired.Load() != 3 {
		t.Errorf("started %d, retired %d; want 4 and 3", p.started.Load(), p.retired.Load())
	}

	close(done)
	wg.Wait() // the last worker and the reaper leave
	if n := p.alive.Load(); n != 0 {
		t.Errorf("%d workers alive after done", n)
	}
}

// One connection at a time, a thousand times over: each node serves them
// all on the workers that their peak concurrency of one needs.
func TestSequentialConnectionsReuseWorkers(t *testing.T) {
	catalog, targets := batchCatalog(4, 300)
	cl := batchCluster(t, 2, "wrr", core.SingleHandoff, catalog)
	client := newRawClient(t, cl.Addr())
	quiet := func() bool {
		q := cl.FE.clients.busy() == 0
		for _, be := range cl.BEs {
			q = q && be.servers.busy() == 0
		}
		return q
	}
	for i := range 1000 {
		if n := client.get(t, fmt.Appendf(nil, "GET %s HTTP/1.0\r\n\r\n", targets[i%len(targets)])); n == 0 {
			t.Fatalf("connection %d: empty response", i)
		}
		waitFor(t, "every worker idle", quiet)
	}
	check := func(who string, started, retired int64) {
		t.Logf("%s: %d workers started, %d retired", who, started, retired)
		if started > 1+retired {
			t.Errorf("%s started %d workers (%d retired) for one connection at a time", who, started, retired)
		}
	}
	check("front-end", cl.FE.clients.started.Load(), cl.FE.clients.retired.Load())
	for i, be := range cl.BEs {
		check(fmt.Sprintf("back-end %d", i), be.servers.started.Load(), be.servers.retired.Load())
	}
}

// A worker's record outlives its connection. A handed-off connection whose
// node went Down leaves the record's socket with the down flag set and its
// epoll set's deadline in the past; closeClient takes the node off the
// socket's entry in fe.socks before the worker can take another
// connection, so no Down sweep reaches the next one, which reads with a
// deadline of its own and no flag.
func TestWokenRecordServesNextConnection(t *testing.T) {
	eng, err := dispatch.NewEngine(dispatch.Spec{Policy: "wrr", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	fe := &FrontEnd{cfg: FrontEndConfig{IdleTimeout: time.Minute, BatchWindow: 50 * time.Microsecond}, eng: eng, lat: core.NewLatencyHist(),
		socks: make(map[*clientSock]core.NodeID)}
	c := newFEConn()
	defer c.sock.release()
	sweep := func() { fe.onMembership(0, membership.Up, membership.Down) }
	serve := func(client net.Conn, fd int) error {
		if err := c.sock.attach(fd, true); err != nil {
			t.Fatal(err)
		}
		c.br.Reset(c.sock)
		if _, err := io.WriteString(client, "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		return fe.readBatch(c)
	}

	first, fd := acceptedPair(t)
	if err := serve(first, fd); err != nil {
		t.Fatal(err)
	}
	if err := fe.openConn(c, c.batch[0]); err != nil {
		t.Fatal(err)
	}
	sweep()
	if !c.sock.down.Load() {
		t.Fatal("the Down sweep did not reach the handed-off connection")
	}
	if err := fe.readBatch(c); !errors.Is(err, errNodeDown) {
		t.Fatalf("read after the Down sweep: %v, want errNodeDown", err)
	}
	fe.closeClient(c)
	if fe.socks[c.sock] != core.NoNode {
		t.Fatal("closeClient left the connection's node in fe.socks")
	}

	// The next connection on the same record, with Down sweeps running
	// while it is served.
	next, fd := acceptedPair(t)
	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sweep()
			}
		}
	}()
	err = serve(next, fd)
	close(stop)
	sweeps.Wait()
	if err != nil || len(c.batch) != 1 {
		t.Fatalf("next connection: %d requests, %v", len(c.batch), err)
	}
	if c.sock.down.Load() {
		t.Error("the next connection carries the down flag")
	}
	c.sock.close()
}

// acceptedPair connects a client to a fresh listener and returns it with
// the accepted socket's descriptor, the front-end's to close.
func acceptedPair(t *testing.T) (net.Conn, int) {
	t.Helper()
	ln, addr, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	rc, err := ln.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var a acceptor
	if err := rc.Read(a.accept); err != nil || a.err != nil {
		t.Fatalf("accept: %v, %v", err, a.err)
	}
	return client, a.fd
}

// waitParked waits until a goroutine waits on the poller in fn.
func waitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	waitFor(t, "a goroutine waiting in "+fn, func() bool {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[IO wait") && strings.Contains(g, fn) {
				return true
			}
		}
		return false
	})
}

// dropRelayed, on the session reader's goroutine, ends a relayed connection
// whose own goroutine is blocked writing to a client that does not read:
// the write fails at once, and the descriptor it was using is still the
// connection's own socket when it does — only closeClient closes it.
func TestDropRelayedLeavesDescriptorToOwner(t *testing.T) {
	fe := &FrontEnd{relays: make(map[core.ConnID]*feConn)}
	c := newFEConn()
	defer c.sock.release()
	client, fd := acceptedPair(t)
	if err := c.sock.attach(fd, true); err != nil {
		t.Fatal(err)
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		t.Fatal(err)
	}
	c.id, c.ready, c.relaying = 5, make(chan struct{}, 1), true
	fe.relays[c.id] = c

	wrote := make(chan error, 1)
	go func() {
		c.sock.deadline(time.Now().Add(time.Minute))
		_, err := c.sock.Write(make([]byte, 64<<20)) // far more than the socket buffers
		wrote <- err
	}()
	waitParked(t, "clientSock).Write")
	fe.dropRelayed(c.id)
	select {
	case err := <-wrote:
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("blocked write ended with %v, want the shut-down socket's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dropRelayed did not end the blocked write")
	}
	var now syscall.Stat_t
	if err := syscall.Fstat(fd, &now); err != nil || now.Ino != st.Ino {
		t.Fatalf("descriptor %d after dropRelayed: %v, inode %d, want the socket's %d still open", fd, err, now.Ino, st.Ino)
	}
	// The socket is shut down: the client reads what was sent, then the
	// end of the stream.
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, client); err != nil {
		t.Errorf("client after dropRelayed: %v", err)
	}
	fe.closeClient(c)
	if c.sock.fd != -1 {
		t.Errorf("closeClient left descriptor %d", c.sock.fd)
	}
}

// A worker's record keeps what a relayed connection needs — the map of
// requests awaiting frames, the wake channel and relayOut's wait timer —
// for its next connection, emptied: a relayed connection on a reused
// record makes none of them again.
func TestRecycleKeepsRelayStorage(t *testing.T) {
	c := newFEConn()
	defer c.sock.release()
	c.relaying = true
	c.relayed, c.ready, c.idle = make(map[int]*relayReq), make(chan struct{}, 1), time.NewTimer(time.Hour)
	relayed, ready, idle := c.relayed, c.ready, c.idle
	c.relayed[3] = &relayReq{}
	wake(c.ready)
	stopTimer(c.idle)
	c.recycle()
	if c.relaying {
		t.Error("the next connection starts out relaying")
	}
	if c.relayed == nil {
		t.Fatal("the map of requests awaiting frames was dropped")
	}
	if len(c.relayed) != 0 {
		t.Errorf("the kept map holds %d requests, want none", len(c.relayed))
	}
	if c.relayed[1] = nil; len(relayed) != 1 {
		t.Error("the map of requests awaiting frames was not kept")
	}
	if c.ready != ready || c.idle != idle {
		t.Error("the wake channel or the wait timer was not kept")
	}
	select {
	case <-c.ready:
		t.Error("a stale wake-up was kept for the next connection")
	default:
	}
	c.idle.Reset(time.Millisecond)
	select {
	case <-c.idle.C:
	case <-time.After(10 * time.Second):
		t.Fatal("the kept timer does not fire after Reset")
	}
}

// discardConn is a control session that takes every write and keeps none.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// A warmed relayed batch allocates nothing on the front-end's way from the
// batch's assignments to its responses on the client socket: relayBatch
// takes its request records, with their REQ lines' storage, from the
// connection's record; the session reader reads each RESP frame into a
// pooled chunk of the smallest class that holds it; and relayOut gives
// record and chunk back once it has written the response. They were four
// allocations a request, the record and its line grown from nothing, and
// then one, the frame. The frames here take each class.
func TestRelayedBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under -race")
	}
	client, accepted := tcpPair(t)
	client.(*net.TCPConn).SetReadBuffer(256 << 10)
	accepted.SetWriteBuffer(256 << 10)
	c := clientRecord(t, fdOf(t, accepted))
	eng, err := dispatch.NewEngine(dispatch.Spec{Policy: "wrr", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	fe := &FrontEnd{
		cfg:    FrontEndConfig{IdleTimeout: time.Minute},
		eng:    eng,
		relays: make(map[core.ConnID]*feConn),
		links:  []*beLink{{ctrl: discardConn{}}},
		lat:    core.NewLatencyHist(),
		closed: make(chan struct{}),
	}
	be, session := tcpPair(t)
	go fe.ctrlReadLoop(fe.links[0], session)
	defer close(fe.closed) // before the session closes: no suspicion
	c.id, c.relaying = 1, true
	c.relayed, c.ready = make(map[int]*relayReq), make(chan struct{}, 1)
	fe.relays[c.id] = c
	var frames [][]byte
	total := 0
	for _, body := range []int{0, 3000, 10000, 30000} {
		head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", body)
		frames = append(frames, append([]byte(head), make([]byte, body)...))
		total += len(head) + body
		c.reqs = append(c.reqs, httpmsg.Request{Method: "GET", Target: "/a", Proto: "HTTP/1.1"})
	}
	assignments := make([]core.Assignment, len(frames))
	msgs := make([]byte, 0, total+len(frames)*64)
	buf := make([]byte, total)
	one := func() {
		first := c.seq
		fe.relayBatch(c, assignments)
		msgs = msgs[:0]
		for i, frame := range frames { // as the back-end writes them
			msgs = append(appendResp(msgs, c.id, first+i, int64(len(frame))), frame...)
		}
		if _, err := be.Write(msgs); err != nil {
			t.Fatal(err)
		}
		if err := fe.relayOut(c, first); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, buf); err != nil {
			t.Fatal(err)
		}
	}
	for range 10 {
		one() // warm: the records, the lines, the node list, the chunks
	}
	perReq := testing.AllocsPerRun(100, one) / float64(len(frames))
	t.Logf("%.2f allocations per relayed request", perReq)
	if perReq != 0 {
		t.Errorf("%.2f allocations per relayed request of a warmed batch, want 0", perReq)
	}
}

// A frame the front-end drops — for a connection gone, or a second one for
// a request that holds one already — goes back to its class pool: frames
// dropped one after another reuse one chunk. A frame past the largest
// class is the collector's.
func TestDroppedFramesReturnToPool(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under -race")
	}
	fe := &FrontEnd{relays: make(map[core.ConnID]*feConn)}
	c := &feConn{id: 1, relayed: map[int]*relayReq{0: {}}, ready: make(chan struct{}, 1)}
	fe.relays[c.id] = c
	fe.fileFrame(c.id, 0, frameChunk(100))
	for _, tc := range []struct {
		name string
		id   core.ConnID
	}{{"connection gone", 2}, {"second frame", 1}} {
		fe.fileFrame(tc.id, 0, frameChunk(5000)) // warm
		if n := testing.AllocsPerRun(100, func() { fe.fileFrame(tc.id, 0, frameChunk(5000)) }); n != 0 {
			t.Errorf("%s: %.2f allocations per dropped frame, want 0", tc.name, n)
		}
	}
	if big := frameChunk(chunkClasses[len(chunkClasses)-1] + 1); big.class >= 0 || len(big.buf) != big.n {
		t.Errorf("a frame past the largest class got class %d, %d bytes for %d", big.class, len(big.buf), big.n)
	}
}
