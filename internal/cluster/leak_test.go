package cluster_test

import (
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
			if tc.stall {
				// The front-end's Close waits for its workers, and a worker
				// for its client's idle timeout.
				cfg.IdleTimeout = 4 * time.Second
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

			// Give lingering netpoll wakeups a moment to drain.
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if runtime.NumGoroutine() <= before+3 && openFDs(t) <= fdsBefore {
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
			t.Errorf("goroutines: %d before, %d after close; descriptors: %d before, %d after",
				before, runtime.NumGoroutine(), fdsBefore, openFDs(t))
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

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}
