package cluster_test

import (
	"bufio"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/httpmsg"
	"phttp/internal/loadgen"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// testConfig builds a small, fast cluster: scaled-down latencies, small
// cache, small catalog.
func testConfig(t *testing.T, nodes int, pol string, mech core.Mechanism) (cluster.Config, *trace.Trace) {
	t.Helper()
	sc := trace.SmallSynthConfig()
	sc.Connections = 600
	tr := trace.NewSynth(sc).Generate()
	cfg := cluster.DefaultConfig(nodes, tr.Sizes)
	cfg.Policy = pol
	cfg.Mechanism = mech
	cfg.TimeScale = 50 // 50x faster than modeled hardware
	cfg.CacheBytes = 8 << 20
	cfg.Disk = server.DefaultDisk()
	cfg.BatchWindow = time.Millisecond
	return cfg, tr
}

// runLoad drives the trace through the cluster with verification on.
func runLoad(t *testing.T, addr string, tr *trace.Trace, http10 bool) loadgen.Result {
	t.Helper()
	res, err := loadgen.Run(loadgen.Config{
		Addr:        addr,
		Trace:       tr,
		HTTP10:      http10,
		Concurrency: 16,
		Verify:      true,
		IOTimeout:   20 * time.Second,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	return res
}

func TestClusterEndToEndBEForwarding(t *testing.T) {
	cfg, tr := testConfig(t, 3, "extlard", core.BEForwarding)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	res := runLoad(t, cl.Addr(), tr, false)
	want := int64(tr.Requests())
	if res.Requests != want {
		t.Errorf("served %d requests, want %d", res.Requests, want)
	}
	if res.Errors != 0 {
		t.Errorf("%d request errors (corruption, size mismatch or status)", res.Errors)
	}
	if got := cl.FE.Requests(); got != want {
		t.Errorf("front-end dispatched %d requests, want %d", got, want)
	}
}

func TestClusterEndToEndHTTP10(t *testing.T) {
	cfg, tr := testConfig(t, 2, "lard", core.SingleHandoff)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	res := runLoad(t, cl.Addr(), tr, true)
	if res.Errors != 0 {
		t.Errorf("%d request errors", res.Errors)
	}
	if res.Requests != int64(tr.Requests()) {
		t.Errorf("served %d requests, want %d", res.Requests, tr.Requests())
	}
}

func TestClusterEndToEndWRR(t *testing.T) {
	cfg, tr := testConfig(t, 2, "wrr", core.SingleHandoff)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	res := runLoad(t, cl.Addr(), tr, false)
	if res.Errors != 0 {
		t.Errorf("%d request errors", res.Errors)
	}
	// WRR never forwards: every back-end must have served something, and
	// the sum must cover the trace.
	if cl.Served() != int64(tr.Requests()) {
		t.Errorf("backends served %d, want %d", cl.Served(), tr.Requests())
	}
	for i, be := range cl.BEs {
		if be.Served() == 0 {
			t.Errorf("backend %d served nothing under WRR", i)
		}
	}
}

func TestClusterEndToEndRelay(t *testing.T) {
	cfg, tr := testConfig(t, 3, "extlard", core.RelayFrontEnd)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	res := runLoad(t, cl.Addr(), tr, false)
	if res.Errors != 0 {
		t.Errorf("%d request errors", res.Errors)
	}
	if res.Requests != int64(tr.Requests()) {
		t.Errorf("served %d requests, want %d", res.Requests, tr.Requests())
	}
}

func TestClusterRejectsSimOnlyMechanism(t *testing.T) {
	cfg, _ := testConfig(t, 2, "extlard", core.MultipleHandoff)
	if _, err := cluster.Start(cfg); err == nil {
		t.Fatal("Start accepted multiple handoff; the prototype should reject simulator-only mechanisms")
	}
}

func TestBackendDeathSurfacesErrors(t *testing.T) {
	cfg, tr := testConfig(t, 3, "extlard", core.BEForwarding)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	// Kill one back-end's peer listener mid-run: lateral fetches to it
	// must fail over to 502s rather than wedging client connections.
	done := make(chan loadgen.Result)
	go func() {
		res, _ := loadgen.Run(loadgen.Config{
			Addr: cl.Addr(), Trace: tr, Concurrency: 8,
			Verify: true, IOTimeout: 20 * time.Second,
		})
		done <- res
	}()
	time.Sleep(100 * time.Millisecond)
	cl.BEs[2].Close()
	select {
	case <-done:
		// The run must terminate; errors are expected and acceptable.
	case <-time.After(120 * time.Second):
		t.Fatal("load run wedged after backend death")
	}
}

// A client whose connection was handed off to a node that dies before
// answering sees the connection reset as soon as the node is confirmed
// Down, not when the front-end's 15 s idle timeout fires: the front-end
// cannot re-dispatch a handed-off connection, so it fails it at once.
func TestHandedOffClientResetOnNodeDeath(t *testing.T) {
	for _, mech := range []core.Mechanism{core.SingleHandoff, core.BEForwarding} {
		t.Run(mech.String(), func(t *testing.T) {
			cfg := cluster.DefaultConfig(2, map[core.Target]int64{"/a": 700, "/b": 900, "/c": 1100})
			cfg.Mechanism = mech
			cfg.SimulateCPU = false
			cfg.Disk = server.DiskParams{Position: 1200 * core.Millisecond} // no answer for 1.2 s
			cfg.ConfirmWindow = 200 * time.Millisecond
			cl, err := cluster.Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			conn, err := net.Dial("tcp", cl.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := io.WriteString(conn, "GET /a HTTP/1.1\r\nHost: c\r\n\r\nGET /b HTTP/1.1\r\nHost: c\r\n\r\nGET /c HTTP/1.1\r\nHost: c\r\n\r\n"); err != nil {
				t.Fatal(err)
			}
			var node *cluster.Backend
			for deadline := time.Now().Add(time.Second); node == nil; time.Sleep(time.Millisecond) {
				for _, be := range cl.BEs {
					if _, m := be.Store().Counters(); m > 0 {
						node = be
					}
				}
				if time.Now().After(deadline) {
					t.Fatal("no back-end took the batch to its disk")
				}
			}
			closed := make(chan struct{})
			go func() { node.Close(); close(closed) }() // returns once the disk read ends
			defer func() { <-closed }()
			start := time.Now()
			conn.SetReadDeadline(start.Add(5 * time.Second))
			n, err := io.Copy(io.Discard, conn)
			if !errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("client read %d bytes, then %v after %v; want a connection reset", n, err, time.Since(start))
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("client saw the reset %v after its node died, want under 1 s", d)
			}
		})
	}
}

// A pipelined batch [ok, missing, ok] comes back in that order through the
// whole cluster, over the handed-off socket (where the back-end coalesces
// the three responses into one buffered write) and over the relay (where
// the front-end writes the frames out in sequence order).
func TestErrorResponseKeepsPipelineOrderEndToEnd(t *testing.T) {
	for _, mech := range []core.Mechanism{core.BEForwarding, core.SingleHandoff, core.RelayFrontEnd} {
		t.Run(mech.String(), func(t *testing.T) {
			cfg := cluster.DefaultConfig(2, map[core.Target]int64{"/a": 700, "/b": 900})
			cfg.Mechanism = mech
			cfg.SimulateCPU = false
			cfg.TimeScale = 100
			cl, err := cluster.Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			conn, err := net.Dial("tcp", cl.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(20 * time.Second))
			var batch string
			for _, tgt := range []string{"/a", "/missing", "/b"} {
				batch += "GET " + tgt + " HTTP/1.1\r\nHost: cluster\r\n\r\n"
			}
			if _, err := io.WriteString(conn, batch); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			for i, want := range []struct {
				status int
				size   int64
			}{{200, 700}, {404, 10}, {200, 900}} {
				resp, err := httpmsg.ReadResponse(br)
				if err != nil {
					t.Fatalf("response %d: %v", i, err)
				}
				if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
					t.Fatalf("response %d body: %v", i, err)
				}
				if resp.Status != want.status || resp.ContentLength != want.size {
					t.Errorf("response %d: status %d, %d bytes; want %d, %d", i, resp.Status, resp.ContentLength, want.status, want.size)
				}
			}
		})
	}
}
