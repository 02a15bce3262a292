//go:build linux

package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"phttp/internal/core"
	"phttp/internal/httpmsg"
)

// Page-path documents: sizes that are no multiple of a page, two of them
// larger than a pipe, and names whose content segment (name plus six
// bytes) does not divide the 1 KB period.
var (
	pgSmall = core.Target("/pg/small")
	pgSizes = map[core.Target]int64{
		"/pg/twenty1": 20481,
		"/pg/three":   300001,
		"/pg/sevens7": 777777,
		pgSmall:       300,
	}
)

// pagePair starts two back-ends over the page-path catalog, node 0
// fetching laterally from node 1, and returns node 0 with a session to it.
func pagePair(t *testing.T) (*Backend, *Backend, *net.UnixConn) {
	t.Helper()
	for tgt := range pgSizes {
		if chunkBytes%(len(tgt)+6) == 0 {
			t.Fatalf("%s: segment divides the period", tgt)
		}
	}
	dir := t.TempDir()
	var be [2]*Backend
	for i := range be {
		var err error
		be[i], err = NewBackend(BackendConfig{
			ID: core.NodeID(i), Catalog: pgSizes, CacheBytes: 64 << 20,
			HandoffSocket: filepath.Join(dir, fmt.Sprintf("be%d.sock", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(be[i].Close)
	}
	be[0].SetPeers(map[core.NodeID]string{1: be[1].PeerAddr()})
	return be[0], be[1], dialSession(t, be[0])
}

// pageReq is one request of a page-path batch and the answer it wants.
type pageReq struct {
	tgt    core.Target
	remote string // "-" or the node a lateral fetch goes to
	status int
}

func reqLines(id int, reqs []pageReq) string {
	var b strings.Builder
	for seq, r := range reqs {
		fmt.Fprintf(&b, "REQ %d %d HTTP/1.1 1 %s %s\n", id, seq, r.remote, r.tgt)
	}
	return b.String()
}

// expectResponses reads the responses to reqs in order and checks each
// byte of every body against the target's content.
func expectResponses(t *testing.T, br *bufio.Reader, reqs []pageReq) {
	t.Helper()
	for i, r := range reqs {
		resp, err := httpmsg.ReadResponse(br)
		if err != nil {
			t.Fatalf("response %d (%s): %v", i, r.tgt, err)
		}
		if resp.Status != r.status {
			t.Fatalf("response %d (%s): status %d, want %d", i, r.tgt, resp.Status, r.status)
		}
		body := make([]byte, resp.ContentLength)
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatalf("response %d (%s): body: %v", i, r.tgt, err)
		}
		if r.status != 200 {
			continue
		}
		if int64(len(body)) != pgSizes[r.tgt] {
			t.Fatalf("response %d (%s): %d bytes, want %d", i, r.tgt, len(body), pgSizes[r.tgt])
		}
		for j, c := range body {
			if want := ContentByte(r.tgt, int64(j)); c != want {
				t.Fatalf("response %d (%s): byte %d is %q, want %q", i, r.tgt, j, c, want)
			}
		}
	}
}

// settled waits until node be holds no connection and its worker is idle
// again, ready for the next connection.
func settled(t *testing.T, be *Backend) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		be.connMu.Lock()
		n := len(be.conns)
		be.connMu.Unlock()
		if n == 0 && be.servers.idle.Load() == be.servers.alive.Load() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open", n)
		}
	}
}

// Large bodies leave from their content pages, local and lateral, byte for
// byte and in order with the small, 404 and 502 responses of the same
// pipelined batch. A client that resets in the middle of a body takes its
// response out of Served(), and the next connection, on the same worker
// and so through the same pipe, is byte-exact again: the pipe was not
// reused with the failed body's bytes in it.
func TestPageBodiesByteExact(t *testing.T) {
	be, _, sess := pagePair(t)
	batch := []pageReq{
		{"/pg/twenty1", "-", 200},
		{pgSmall, "-", 200},
		{"/pg/three", "1", 200},
		{"/pg/missing", "-", 404},
		{"/pg/sevens7", "-", 200},
		{"/pg/twenty1", "1", 200},
		{pgSmall, "1", 200},
		{"/pg/sevens7", "1", 200},
		{"/pg/three", "2", 502}, // no such peer
		{"/pg/three", "-", 200},
		{pgSmall, "-", 200},
	}
	served := func(reqs []pageReq) (n int64) {
		for _, r := range reqs {
			if r.status == 200 {
				n++
			}
		}
		return n
	}
	exact := func(id int) {
		t.Helper()
		client, accepted := tcpPair(t)
		before := be.Served()
		sendWith(t, sess, accepted, fmt.Sprintf("HANDOFF %d\n", id)+reqLines(id, batch))
		client.SetReadDeadline(time.Now().Add(30 * time.Second))
		expectResponses(t, bufio.NewReader(client), batch)
		if got := be.Served() - before; got != served(batch) {
			t.Errorf("connection %d: Served() rose by %d, want %d", id, got, served(batch))
		}
		if _, err := fmt.Fprintf(sess, "CLOSE %d\n", id); err != nil {
			t.Fatal(err)
		}
		settled(t, be)
	}
	reset := func(id int, remote string) {
		t.Helper()
		client, accepted := tcpPair(t)
		// Small buffers on both ends: the body cannot fit them.
		client.(*net.TCPConn).SetReadBuffer(16 << 10)
		accepted.SetWriteBuffer(16 << 10)
		before, aborted := be.Served(), be.Aborted()
		sendWith(t, sess, accepted, fmt.Sprintf("HANDOFF %d\nREQ %d 0 HTTP/1.1 1 %s /pg/sevens7\n", id, id, remote))
		waitParked(t, "clientSock).run") // the body filled the socket
		head := make([]byte, 4<<10)
		if _, err := io.ReadFull(client, head); err != nil {
			t.Fatal(err)
		}
		client.(*net.TCPConn).SetLinger(0)
		client.Close()
		for deadline := time.Now().Add(10 * time.Second); be.Aborted() == aborted; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the reset did not end the response")
			}
		}
		if got := be.Served(); got != before {
			t.Errorf("connection %d: Served() is %d after a reset mid-body, want %d", id, got, before)
		}
		if _, err := fmt.Fprintf(sess, "CLOSE %d\n", id); err != nil {
			t.Fatal(err)
		}
		settled(t, be)
	}
	exact(1)
	reset(2, "-")
	exact(3)
	reset(4, "1")
	exact(5)
	if n := be.servers.started.Load(); n != 1 {
		t.Errorf("%d workers started, want 1: the connections did not share a pipe", n)
	}
}

// A warmed large response, local or fetched laterally, over a real socket
// allocates nothing anywhere in the process: the pipe, its callbacks and
// the peer connection's RawConn are made once.
func TestPageResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts through sync.Pool mean nothing under -race")
	}
	_, _, sess := pagePair(t)
	client, accepted := tcpPair(t)
	sendWith(t, sess, accepted, "HANDOFF 1\n")
	client.SetReadDeadline(time.Now().Add(time.Minute))
	for _, tc := range []struct {
		name, remote string
		tgt          core.Target
	}{{"local", "-", "/pg/three"}, {"lateral", "1", "/pg/three"}} {
		t.Run(tc.name, func(t *testing.T) {
			var want bytes.Buffer
			fmt.Fprintf(&want, "HTTP/1.1 200 OK\r\nServer: phttp-cluster\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n", pgSizes[tc.tgt])
			WriteContent(&want, tc.tgt, pgSizes[tc.tgt])
			buf := make([]byte, want.Len())
			seq, line := 0, make([]byte, 0, 128)
			one := func() {
				line = strconv.AppendInt(append(line[:0], "REQ 1 "...), int64(seq), 10)
				line = append(append(append(append(append(line, " HTTP/1.1 1 "...), tc.remote...), ' '), tc.tgt...), '\n')
				seq++
				if _, err := sess.Write(line); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(client, buf); err != nil {
					t.Fatal(err)
				}
			}
			for range 20 {
				one() // warm: the worker, its pipe, the page, the peer pool
			}
			if !bytes.Equal(buf, want.Bytes()) {
				t.Fatal("response differs from its document")
			}
			allocs := testing.AllocsPerRun(100, one)
			t.Logf("%.2f allocations per %d-byte response", allocs, len(buf))
			if allocs != 0 {
				t.Errorf("%.2f allocations per warmed large response, want 0", allocs)
			}
		})
	}
	if _, err := io.WriteString(sess, "CLOSE 1\n"); err != nil {
		t.Fatal(err)
	}
}

// A client that pipelines large documents and reads nothing is refused by
// the rule that refuses any client that stops reading: with maxPending
// requests waiting, a splice that moves nothing for stallGrace ends the
// connection. The node then serves the next connection byte for byte.
func TestPageBodyStalledClientIsRefused(t *testing.T) {
	be, _, sess := pagePair(t)
	client, accepted := tcpPair(t)
	client.(*net.TCPConn).SetReadBuffer(16 << 10)
	accepted.SetWriteBuffer(16 << 10)
	var burst strings.Builder
	burst.WriteString("HANDOFF 1\n")
	for seq := 0; seq < 2*maxPending; seq++ {
		fmt.Fprintf(&burst, "REQ 1 %d HTTP/1.1 1 - /pg/three\n", seq)
	}
	sendWith(t, sess, accepted, burst.String())
	for deadline := time.Now().Add(20 * time.Second); be.Aborted() == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a client that reads nothing was not refused")
		}
	}
	if _, err := io.WriteString(sess, "CLOSE 1\n"); err != nil {
		t.Fatal(err)
	}
	settled(t, be)

	next, acceptedNext := tcpPair(t)
	sendWith(t, sess, acceptedNext, "HANDOFF 2\nREQ 2 0 HTTP/1.1 1 - /pg/three\nREQ 2 1 HTTP/1.1 1 1 /pg/sevens7\n")
	next.SetReadDeadline(time.Now().Add(30 * time.Second))
	expectResponses(t, bufio.NewReader(next), []pageReq{{"/pg/three", "-", 200}, {"/pg/sevens7", "1", 200}})
	if _, err := io.WriteString(sess, "CLOSE 2\n"); err != nil {
		t.Fatal(err)
	}
}

// slowReader reads at most 16 KB from r every 200 ms until its time is
// up, then as fast as it is asked.
type slowReader struct {
	r     io.Reader
	until time.Time
}

func (s *slowReader) Read(p []byte) (int, error) {
	if time.Now().Before(s.until) {
		time.Sleep(200 * time.Millisecond)
		p = p[:min(len(p), 16<<10)]
	}
	return s.r.Read(p)
}

// A client with a deep pipeline that reads slowly but steadily is served
// whole, on the page path and on the chunk path: every write that waits
// on it has stallGrace afresh to move a byte, however long its queue has
// been maxPending deep, so that only a client that stops reading is
// refused.
func TestSlowReaderWithDeepPipelineIsServed(t *testing.T) {
	reqs := make([]pageReq, 2*maxPending)
	for i := range reqs {
		reqs[i] = pageReq{"/pg/twenty1", "-", 200}
	}
	for _, path := range []string{"page", "chunk"} {
		t.Run(path, func(t *testing.T) {
			be, _, sess := pagePair(t)
			if path == "chunk" {
				be.store.releasePages() // no content page: every body takes the chunk path
			}
			client, accepted := tcpPair(t)
			client.(*net.TCPConn).SetReadBuffer(16 << 10)
			accepted.SetWriteBuffer(16 << 10)
			sendWith(t, sess, accepted, "HANDOFF 1\n"+reqLines(1, reqs))
			client.SetReadDeadline(time.Now().Add(time.Minute))
			slow := &slowReader{r: client, until: time.Now().Add(3 * time.Second)}
			expectResponses(t, bufio.NewReaderSize(slow, 16<<10), reqs)
			if n := be.Aborted(); n != 0 {
				t.Errorf("%d connections refused, want none", n)
			}
			if _, err := io.WriteString(sess, "CLOSE 1\n"); err != nil {
				t.Fatal(err)
			}
			settled(t, be)
		})
	}
}
