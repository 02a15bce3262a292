package cluster_test

import (
	"os"
	"runtime"
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
// and the page memory unmapped, on Close.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mech   core.Mechanism
		http10 bool
		large  bool
	}{
		{"BEforward", core.BEForwarding, false, false},
		{"http10Handoff", core.SingleHandoff, true, false},
		{"BEforwardLarge", core.BEForwarding, false, true},
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
			cl.Close()
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

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}
