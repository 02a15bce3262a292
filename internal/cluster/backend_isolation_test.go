package cluster_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/httpmsg"
	"phttp/internal/server"
)

// fakeFE drives one Backend directly over the wire protocol, standing in
// for the front-end: it owns the session on the back-end's UNIX socket,
// which carries the handoffs and the lines that use them.
type fakeFE struct {
	t    *testing.T
	be   *cluster.Backend
	sess *net.UnixConn
}

func newBackendPair(t *testing.T) (*cluster.Backend, *cluster.Backend, *fakeFE) {
	t.Helper()
	return newBackendPairWith(t, func(*cluster.BackendConfig) {})
}

// newBackendPairWith is newBackendPair with both nodes' configurations
// passed through set first.
func newBackendPairWith(t *testing.T, set func(*cluster.BackendConfig)) (*cluster.Backend, *cluster.Backend, *fakeFE) {
	t.Helper()
	dir := t.TempDir()
	catalog := map[core.Target]int64{
		"/local":  3000,
		"/remote": 5000,
	}
	mk := func(id int) *cluster.Backend {
		cfg := cluster.BackendConfig{
			ID:            core.NodeID(id),
			Catalog:       catalog,
			CacheBytes:    1 << 20,
			Disk:          server.DiskParams{Position: 100, TransferPer512: 1},
			TimeScale:     100,
			HandoffSocket: filepath.Join(dir, fmt.Sprintf("be%d.sock", id)),
		}
		set(&cfg)
		be, err := cluster.NewBackend(cfg)
		if err != nil {
			t.Fatalf("backend %d: %v", id, err)
		}
		t.Cleanup(be.Close)
		return be
	}
	be0, be1 := mk(0), mk(1)
	peers := map[core.NodeID]string{0: be0.PeerAddr(), 1: be1.PeerAddr()}
	be0.SetPeers(peers)
	be1.SetPeers(peers)

	sess, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: be0.HandoffPath(), Net: "unix"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return be0, be1, &fakeFE{t: t, be: be0, sess: sess}
}

// handoff creates a client TCP pair, hands the server side to the backend
// under connID, and returns the client side.
func (f *fakeFE) handoff(connID core.ConnID) net.Conn {
	f.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.t.Fatal(err)
	}
	defer ln.Close()
	clientCh := make(chan net.Conn, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			clientCh <- c
		}
	}()
	serverSide, err := ln.Accept()
	if err != nil {
		f.t.Fatal(err)
	}
	file, err := serverSide.(*net.TCPConn).File()
	if err != nil {
		f.t.Fatal(err)
	}
	if err := cluster.SendConnFD(f.sess, connID, file); err != nil {
		f.t.Fatal(err)
	}
	file.Close()
	serverSide.Close() // the backend holds its own duplicate now
	client := <-clientCh
	f.t.Cleanup(func() { client.Close() })
	return client
}

func (f *fakeFE) send(line string) {
	f.t.Helper()
	if _, err := io.WriteString(f.sess, line); err != nil {
		f.t.Fatal(err)
	}
}

func readFullResponse(t *testing.T, br *bufio.Reader) (*httpmsg.Response, []byte) {
	t.Helper()
	resp, err := httpmsg.ReadResponse(br)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	body := make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

func TestBackendServesLocalTaggedRequest(t *testing.T) {
	_, _, fe := newBackendPair(t)
	client := fe.handoff(1)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	// "REQ <conn> <seq> <proto> <keep> <remote|-> <target>"
	fe.send("REQ 1 0 HTTP/1.1 1 - /local\n")
	br := bufio.NewReader(client)
	resp, body := readFullResponse(t, br)
	if resp.Status != 200 || int64(len(body)) != 3000 {
		t.Fatalf("status %d, body %d bytes", resp.Status, len(body))
	}
	for i := 0; i < 32; i++ {
		if body[i] != cluster.ContentByte("/local", int64(i)) {
			t.Fatalf("corrupt body at %d", i)
		}
	}
	fe.send("CLOSE 1\n")
}

func TestBackendLateralFetchProducesRemoteContent(t *testing.T) {
	_, be1, fe := newBackendPair(t)
	client := fe.handoff(2)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	// Tagged: be0 must fetch /remote from be1 and forward it.
	fe.send("REQ 2 0 HTTP/1.1 1 1 /remote\n")
	br := bufio.NewReader(client)
	resp, body := readFullResponse(t, br)
	if resp.Status != 200 || int64(len(body)) != 5000 {
		t.Fatalf("status %d, body %d bytes", resp.Status, len(body))
	}
	for i := 0; i < 32; i++ {
		if body[i] != cluster.ContentByte("/remote", int64(i)) {
			t.Fatalf("corrupt forwarded body at %d", i)
		}
	}
	// The content came off be1's store, not be0's.
	if h, m := be1.Store().Counters(); h+m != 1 {
		t.Errorf("peer store accesses = %d, want 1", h+m)
	}
	fe.send("CLOSE 2\n")
}

// With the CPU model on, each node is charged what the simulator charges
// it: a forwarded request costs its remote node PerRequest and
// ForwardPerRequest and its handling node ForwardPerRequest, ForwardRecv
// and Transmit — PerRequest once, not on both nodes; a handed-off
// connection costs its node HandoffBE and ConnSetup, then ConnTeardown; a
// relayed connection costs a back-end PerRequest and Transmit a request
// and no teardown, which its relaying front-end pays.
func TestCPUChargesMatchSimulator(t *testing.T) {
	costs := server.Costs{ConnSetup: 1, ConnTeardown: 2, PerRequest: 4, TransmitPer512: 8,
		HandoffBE: 16, ForwardPerRequest: 32, ForwardPer512: 64}
	be0, be1, fe := newBackendPairWith(t, func(cfg *cluster.BackendConfig) {
		cfg.SimulateCPU, cfg.Costs = true, costs
	})
	client := fe.handoff(1)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	fe.send("REQ 1 0 HTTP/1.1 1 1 /remote\n") // forwarded: be1 has the content
	readFullResponse(t, bufio.NewReader(client))
	fe.send("CLOSE 1\n")

	relay, err := net.Dial("tcp", be1.CtrlAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	relay.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := io.WriteString(relay, "RELAY 2\nREQ 2 0 HTTP/1.1 1 - /local\n"); err != nil {
		t.Fatal(err)
	}
	for br := bufio.NewReader(relay); ; {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		if _, err := fmt.Sscanf(line, "RESP 2 0 %d\n", &n); err == nil {
			if _, err := io.CopyN(io.Discard, br, n); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if _, err := io.WriteString(relay, "CLOSE 2\n"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); be0.Conns()+be1.Conns() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d and %d connection records after both CLOSEs", be0.Conns(), be1.Conns())
		}
	}
	handling := costs.HandoffBE + costs.ConnSetup +
		costs.ForwardPerRequest + costs.ForwardRecv(5000) + costs.Transmit(5000) + costs.ConnTeardown
	remote := costs.PerRequest + costs.ForwardPerRequest + // the lateral fetch
		costs.PerRequest + costs.Transmit(3000) // the relayed request
	if got := be0.CPUAsked(); got != handling {
		t.Errorf("handling node charged %d µs, want %d", got, handling)
	}
	if got := be1.CPUAsked(); got != remote {
		t.Errorf("remote and relaying node charged %d µs, want %d", got, remote)
	}
}

// A miss at the peer (MISS) is a 502 that leaves the fetch connection in
// step: after more misses than the pool has connections, a fetch on the
// same pool still gets the peer's document, byte for byte.
func TestBackendLateralPoolReusedAfterMiss(t *testing.T) {
	_, be1, fe := newBackendPair(t)
	client := fe.handoff(4)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	const misses = 9 // the pool holds four connections per peer
	for seq := 0; seq < misses; seq++ {
		fe.send(fmt.Sprintf("REQ 4 %d HTTP/1.1 1 1 /nowhere\n", seq))
	}
	fe.send(fmt.Sprintf("REQ 4 %d HTTP/1.1 1 1 /remote\n", misses))
	br := bufio.NewReader(client)
	for seq := 0; seq < misses; seq++ {
		if resp, _ := readFullResponse(t, br); resp.Status != 502 {
			t.Fatalf("request %d for a document the peer lacks: status %d, want 502", seq, resp.Status)
		}
	}
	resp, body := readFullResponse(t, br)
	want := make([]byte, 5000)
	for i := range want {
		want[i] = cluster.ContentByte("/remote", int64(i))
	}
	if resp.Status != 200 || string(body) != string(want) {
		t.Fatalf("fetch after the misses: status %d, %d bytes, want 200 with the peer's 5000", resp.Status, len(body))
	}
	if h, m := be1.Store().Counters(); h+m != 1 {
		t.Errorf("peer store accesses = %d, want 1", h+m)
	}
	fe.send("CLOSE 4\n")
}

// Lateral fetches ride a UNIX socket beside the handoff socket. Closing
// the peer removes the socket file, and a fetch from it then answers 502
// at once, with no timeout to wait out.
func TestBackendPeerSocketClosed(t *testing.T) {
	_, be1, fe := newBackendPair(t)
	if want := be1.HandoffPath() + ".peer"; be1.PeerAddr() != want {
		t.Fatalf("PeerAddr %q, want %q", be1.PeerAddr(), want)
	}
	if _, err := os.Stat(be1.PeerAddr()); err != nil {
		t.Fatalf("peer socket: %v", err)
	}
	be1.Close()
	if _, err := os.Stat(be1.PeerAddr()); !os.IsNotExist(err) {
		t.Fatalf("peer socket after Close: %v, want it gone", err)
	}
	client := fe.handoff(5)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	start := time.Now()
	fe.send("REQ 5 0 HTTP/1.1 1 1 /remote\n")
	resp, _ := readFullResponse(t, bufio.NewReader(client))
	if resp.Status != 502 {
		t.Fatalf("fetch from a closed peer: status %d, want 502", resp.Status)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("fetch from a closed peer answered after %v", d)
	}
	fe.send("CLOSE 5\n")
}

func TestBackendPipelinedOrderPreserved(t *testing.T) {
	_, _, fe := newBackendPair(t)
	client := fe.handoff(3)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	// Two pipelined requests, one local and one lateral: responses must
	// come back in request order despite different service paths.
	fe.send("REQ 3 0 HTTP/1.1 1 1 /remote\n")
	fe.send("REQ 3 1 HTTP/1.1 1 - /local\n")
	br := bufio.NewReader(client)
	r1, _ := readFullResponse(t, br)
	r2, _ := readFullResponse(t, br)
	if r1.ContentLength != 5000 || r2.ContentLength != 3000 {
		t.Errorf("response order: got %d then %d bytes, want 5000 then 3000",
			r1.ContentLength, r2.ContentLength)
	}
	fe.send("CLOSE 3\n")
}

func TestBackendDiskReports(t *testing.T) {
	_, _, fe := newBackendPair(t)
	br := bufio.NewReader(fe.sess)
	fe.sess.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no disk report: %v", err)
	}
	var depth int
	if _, err := fmt.Sscanf(line, "DISKQ %d", &depth); err != nil {
		t.Fatalf("unexpected control message %q", line)
	}
	if depth != 0 {
		t.Errorf("idle backend reports disk queue %d", depth)
	}
}

func TestMainDoesNotLeakTempSockets(t *testing.T) {
	dir, err := cluster.HandoffSocketDir()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
}

// One client that pipelines without reading must not stall the node: the
// control loop used to block on that connection's full queue, freezing REQ
// delivery for every other connection of the back-end. Now its neighbour is
// served meanwhile, and the connection is refused — closed — when, with more
// than maxPending (256) requests waiting, its client takes nothing for
// stallGrace (1 s).
func TestStalledClientDoesNotStallBackend(t *testing.T) {
	be, _, fe := newBackendPair(t)
	stalled := fe.handoff(10)
	normal := fe.handoff(11)

	// Far more response bytes than the socket buffers of a client that
	// never reads absorb (3000 x 3 KB), so the serve goroutine ends up
	// blocked in a write with most of the burst queued behind it.
	const burstReqs = 3000
	var burst strings.Builder
	for seq := 0; seq < burstReqs; seq++ {
		fmt.Fprintf(&burst, "REQ 10 %d HTTP/1.1 1 - /local\n", seq)
	}
	fe.send(burst.String())
	fe.send("REQ 11 0 HTTP/1.1 1 - /local\n")

	normal.SetDeadline(time.Now().Add(20 * time.Second))
	normalBR := bufio.NewReader(normal)
	resp, body := readFullResponse(t, normalBR)
	if resp.Status != 200 || len(body) != 3000 {
		t.Fatalf("neighbour of a stalled client: status %d, %d bytes", resp.Status, len(body))
	}

	// Refused, not parked: the node ends the connection, and the stream
	// ends (what had been written, then EOF or a reset) instead of idling.
	// Reading only now: a client that reads is not stalled.
	for deadline := time.Now().Add(20 * time.Second); be.Aborted() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("stalled connection was not refused")
		}
		time.Sleep(20 * time.Millisecond)
	}
	stalled.SetDeadline(time.Now().Add(20 * time.Second))
	n, err := io.Copy(io.Discard, stalled)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled connection still open after %d bytes", n)
	}
	if n >= burstReqs*3000 {
		t.Errorf("stalled connection was served in full (%d bytes)", n)
	}

	// The record stays until the front-end's CLOSE, dropping what is
	// still in flight for it; the node keeps serving afterwards.
	fe.send("REQ 10 9999 HTTP/1.1 1 - /local\nCLOSE 10\n")
	fe.send("REQ 11 1 HTTP/1.1 1 - /local\n")
	if resp, _ := readFullResponse(t, normalBR); resp.Status != 200 {
		t.Errorf("after the refusal: status %d", resp.Status)
	}
	fe.send("CLOSE 11\n")
}

// A deep pipelined burst from a client that reads is served, not refused:
// depth alone says nothing about the client.
func TestDeepBurstFromReadingClientIsServed(t *testing.T) {
	_, _, fe := newBackendPair(t)
	client := fe.handoff(13)
	client.SetDeadline(time.Now().Add(30 * time.Second))
	const burstReqs = 2000
	var burst strings.Builder
	for seq := 0; seq < burstReqs; seq++ {
		fmt.Fprintf(&burst, "REQ 13 %d HTTP/1.1 1 - /local\n", seq)
	}
	fe.send(burst.String())
	br := bufio.NewReaderSize(client, 64<<10)
	for i := 0; i < burstReqs; i++ {
		resp, err := httpmsg.ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i, burstReqs, err)
		}
		if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
			t.Fatalf("response %d body: %v", i, err)
		}
	}
	fe.send("CLOSE 13\n")
}

// A relayed connection has no socket at the back-end to reset, so a refusal
// is said on its session: CLOSE <conn>, on which the front-end closes the
// client. The session is read only once the node has refused, so frames
// stop leaving and the connection's queue runs into its bound; then it
// carries the frames already written and the CLOSE behind them. Relay runs
// over one TCP session, which announces nothing.
func TestRelayedRefusalIsReported(t *testing.T) {
	be, _, fe := newBackendPair(t)
	sess, err := net.Dial("tcp", be.CtrlAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })

	var burst strings.Builder
	burst.WriteString("RELAY 20\n")
	for seq := 0; seq < 12000; seq++ { // 36 MB of frames, more than maxQueued requests
		fmt.Fprintf(&burst, "REQ 20 %d HTTP/1.1 1 - /local\n", seq)
	}
	go io.WriteString(sess, burst.String())
	for deadline := time.Now().Add(30 * time.Second); be.Aborted() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the back-end never refused the relayed connection")
		}
	}

	sess.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(sess)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("no refusal reported for the relayed connection: %v", err)
		}
		if line == "CLOSE 20\n" {
			break
		}
		var conn, seq, n int64
		if _, err := fmt.Sscanf(line, "RESP %d %d %d\n", &conn, &seq, &n); err == nil && conn == 20 {
			if _, err := io.CopyN(io.Discard, br, n); err != nil {
				t.Fatal(err)
			}
		} else if !strings.HasPrefix(line, "DISKQ ") {
			t.Fatalf("unexpected message %q", line)
		}
	}

	// The front-end's CLOSE clears the record; the node serves on.
	fe.send("CLOSE 20\n")
	client := fe.handoff(21)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	fe.send("REQ 21 0 HTTP/1.1 1 - /local\n")
	if resp, _ := readFullResponse(t, bufio.NewReader(client)); resp.Status != 200 {
		t.Errorf("after the refusal: status %d", resp.Status)
	}
	fe.send("CLOSE 21\n")
}

// An error response keeps its place in the pipeline: written through the
// connection's buffered writer like every other response, it can neither
// overtake the 200 buffered ahead of it nor be overtaken.
func TestBackendErrorResponseKeepsPipelineOrder(t *testing.T) {
	_, _, fe := newBackendPair(t)
	client := fe.handoff(12)
	client.SetDeadline(time.Now().Add(20 * time.Second))
	fe.send("REQ 12 0 HTTP/1.1 1 - /local\n" +
		"REQ 12 1 HTTP/1.1 1 - /missing\n" +
		"REQ 12 2 HTTP/1.1 1 7 /remote\n" + // tagged for a node that does not exist: 502
		"REQ 12 3 HTTP/1.1 1 1 /remote\n" +
		"REQ 12 4 HTTP/1.1 1 - /local\n")
	br := bufio.NewReader(client)
	for i, want := range []struct {
		status int
		size   int64
	}{{200, 3000}, {404, 10}, {502, 12}, {200, 5000}, {200, 3000}} {
		resp, _ := readFullResponse(t, br)
		if resp.Status != want.status || resp.ContentLength != want.size {
			t.Errorf("response %d: status %d, %d bytes; want %d, %d", i, resp.Status, resp.ContentLength, want.status, want.size)
		}
	}
	fe.send("CLOSE 12\n")
}
