package cluster_test

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/loadgen"
	"phttp/internal/trace"
)

// TestCloseLeavesNoGoroutines verifies a full start/traffic/close cycle
// returns the process to (approximately) its original goroutine count and
// to its original open descriptors: the prototype's accept loops,
// connection workers (and each front-end worker's epoll set), control
// sessions and disk reporters must all end on Close. P-HTTP under BE
// forwarding, and HTTP/1.0 under single handoff, whose every request is a
// connection of its own on each node's workers; and BE forwarding of large
// documents, whose bodies leave from content pages through the workers',
// the lateral-fetch sessions' and the pools' pipes: the pipes are closed,
// and the page memory unmapped, on Close. And with clients that stop
// reading large documents: a back-end refuses one mid-write, and Close
// wakes the other's write, waiting in its worker's epoll set; their
// workers close the descriptors.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mech   core.Mechanism
		http10 bool
		large  bool
		stall  bool
	}{
		{"BEforward", core.BEForwarding, false, false, false},
		{"http10Handoff", core.SingleHandoff, true, false, false},
		{"BEforwardLarge", core.BEForwarding, false, true, false},
		{"BEforwardStalled", core.BEForwarding, false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, fdsBefore, pagesBefore := runtime.NumGoroutine(), openFDs(t), cluster.MappedPageBytes()

			cfg, tr := testConfig(t, 2, "extlard", tc.mech)
			if tc.large {
				sc := trace.SmallSynthConfig()
				sc.Connections, sc.MinSize, sc.MaxSize = 300, 32<<10, 1<<20
				tr = trace.NewSynth(sc).Generate()
				cfg.Catalog = tr.Sizes
				cfg.CacheBytes = 64 << 20
			}
			cl, err := cluster.Start(cfg)
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			if _, err := loadgen.Run(loadgen.Config{
				Addr: cl.Addr(), Trace: tr, Concurrency: 8, HTTP10: tc.http10,
				IOTimeout: 20 * time.Second,
			}); err != nil {
				cl.Close()
				t.Fatalf("loadgen: %v", err)
			}
			if tc.large && cluster.MappedPageBytes() == pagesBefore {
				t.Error("large documents were served, but no content page was made")
			}
			var stalled []net.Conn
			if tc.stall {
				stalled = stallClients(t, cl, tr)
			}
			closed := make(chan struct{})
			go func() { cl.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(20 * time.Second):
				t.Fatal("Close did not return")
			}
			for _, conn := range stalled {
				conn.Close()
			}
			if got := cluster.MappedPageBytes(); got != pagesBefore {
				t.Errorf("%d bytes of content pages mapped after Close, %d before", got, pagesBefore)
			}

			settles(t, before, fdsBefore)
		})
	}
}

// TestFrontEndCloseIsBounded: the front-end's Close wakes every client
// worker at once, at the default 15 s IdleTimeout, whatever it waits in:
// idle keep-alive clients, one that has connected and sent nothing, and
// one whose responses are mid-stream when it stops reading — relayed,
// the front-end's own write waits; handed off, its worker waits for the
// next request. Close returns within 200 ms, and the cluster leaves the
// process's goroutines and descriptors as it found them.
func TestFrontEndCloseIsBounded(t *testing.T) {
	for _, mech := range []core.Mechanism{core.RelayFrontEnd, core.BEForwarding} {
		t.Run(mech.String(), func(t *testing.T) {
			before, fdsBefore := runtime.NumGoroutine(), openFDs(t)
			cfg, _ := testConfig(t, 2, "extlard", mech)
			sc := trace.SmallSynthConfig()
			sc.Connections, sc.MinSize, sc.MaxSize = 100, 32<<10, 256<<10
			tr := trace.NewSynth(sc).Generate()
			cfg.Catalog, cfg.CacheBytes = tr.Sizes, 64<<20
			cl, err := cluster.Start(cfg)
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			var conns []net.Conn
			defer func() {
				cl.Close()
				for _, conn := range conns {
					conn.Close()
				}
			}()
			dial := func() net.Conn {
				conn, err := net.Dial("tcp", cl.Addr())
				if err != nil {
					t.Fatal(err)
				}
				conns = append(conns, conn)
				return conn
			}
			var big core.Target
			for tgt, size := range tr.Sizes {
				if size > tr.Sizes[big] || size == tr.Sizes[big] && tgt < big {
					big = tgt
				}
			}
			req := "GET " + string(big) + " HTTP/1.1\r\nHost: c\r\n\r\n"
			for range 3 {
				conn := dial()
				io.WriteString(conn, req)
				readFullResponse(t, bufio.NewReader(conn))
			}
			dial()
			stalled := dial()
			stalled.(*net.TCPConn).SetReadBuffer(16 << 10)
			io.WriteString(stalled, strings.Repeat(req, 64))
			stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.ReadFull(stalled, make([]byte, 64)); err != nil {
				t.Fatalf("no response began: %v", err)
			}
			time.Sleep(100 * time.Millisecond) // the client's socket fills

			start := time.Now()
			cl.FE.Close()
			if took := time.Since(start); took > 200*time.Millisecond {
				t.Errorf("the front-end's Close took %v", took)
			}
			cl.Close()
			for _, conn := range conns {
				conn.Close()
			}
			conns = nil
			settles(t, before, fdsBefore)
		})
	}
}

// When a front-end's session to a back-end ends, the back-end ends the
// connections handed off over it, as their CLOSE would, and keeps no
// record, worker or descriptor of them: a keep-alive client that has its
// response sees the end of the stream, or a reset, at once. The front-end
// may have closed, and the client learns it then, not when the back-end
// closes; or it may have re-dialled the slot (AddBackend), which resets
// the connections handed off over the old session first — else a request
// for one would go to a back-end that holds no record of it — and serves
// new connections on the new one. The front-end's idle worker stays then,
// so the process's goroutines and descriptors are counted only when the
// front-end has closed.
func TestSessionEndReleasesHandedOff(t *testing.T) {
	for _, redial := range []bool{false, true} {
		t.Run(map[bool]string{false: "front-end closed", true: "slot re-dialled"}[redial], func(t *testing.T) {
			cfg, tr := testConfig(t, 2, "extlard", core.BEForwarding)
			cl, err := cluster.Start(cfg)
			if err != nil {
				t.Fatalf("start: %v", err)
			}
			defer cl.Close()
			records := func() (n int) {
				for _, be := range cl.BEs {
					n += be.Conns()
				}
				return n
			}
			req := "GET " + string(tr.Conns[0].Batches[0][0].Target) + " HTTP/1.1\r\nHost: c\r\n\r\n"
			get := func() (net.Conn, *bufio.Reader) {
				conn, err := net.Dial("tcp", cl.Addr())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				if _, err := io.WriteString(conn, req); err != nil {
					t.Fatal(err)
				}
				br := bufio.NewReader(conn)
				readFullResponse(t, br)
				return conn, br
			}
			before, fdsBefore := runtime.NumGoroutine(), openFDs(t)
			conn, br := get()
			if n := records(); n != 1 {
				t.Fatalf("%d connection records at the back-ends, want the handed-off one", n)
			}

			if redial {
				for i, be := range cl.BEs {
					ep := cluster.BackendEndpoints{Ctrl: be.CtrlAddr(), Handoff: be.HandoffPath()}
					if err := cl.FE.AddBackend(core.NodeID(i), ep); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				cl.FE.Close()
			}
			start := time.Now()
			conn.SetReadDeadline(start.Add(3 * time.Second))
			if _, err := br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) || time.Since(start) > 500*time.Millisecond {
				t.Errorf("the client read %v after %v; want the end of the stream or a reset within 500ms", err, time.Since(start))
			}
			conn.Close()
			for deadline := time.Now().Add(5 * time.Second); records() != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d connection records at the back-ends after the session ended", records())
				}
			}
			if redial {
				get() // the new sessions serve
			} else {
				settles(t, before, fdsBefore)
			}
		})
	}
}

// stallClients opens two connections that ask for cl's largest document
// and read nothing: one pipelines twice the back-ends' maxPending requests
// and is refused mid-write once it has taken nothing for their stallGrace;
// the other asks for a few, and its response waits to be written when the
// cluster closes.
func stallClients(t *testing.T, cl *cluster.Cluster, tr *trace.Trace) []net.Conn {
	t.Helper()
	var big core.Target
	for tgt, size := range tr.Sizes {
		if size > tr.Sizes[big] || size == tr.Sizes[big] && tgt < big {
			big = tgt
		}
	}
	aborted := func() (n int64) {
		for _, be := range cl.BEs {
			n += be.Aborted()
		}
		return n
	}
	before := aborted()
	var conns []net.Conn
	for _, n := range []int{512, 16} {
		conn, err := net.Dial("tcp", cl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		conn.(*net.TCPConn).SetReadBuffer(16 << 10)
		req := "GET " + string(big) + " HTTP/1.1\r\nHost: c\r\n\r\n"
		if _, err := io.WriteString(conn, strings.Repeat(req, n)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(20 * time.Second); aborted() == before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a client that reads nothing was not refused")
		}
	}
	return conns
}

// settles waits for the process to return to (about) before goroutines
// and to at most fds open descriptors, giving lingering netpoll wakeups a
// moment to drain.
func settles(t *testing.T, before, fds int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if runtime.NumGoroutine() <= before+3 && openFDs(t) <= fds {
			return
		}
	}
	t.Errorf("goroutines: %d before, %d after close; descriptors: %d before, %d after",
		before, runtime.NumGoroutine(), fds, openFDs(t))
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}
