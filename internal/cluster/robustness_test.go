package cluster_test

import (
	"bufio"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/httpmsg"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// dialCluster starts a tiny cluster and returns a raw client connection.
func dialCluster(t *testing.T, pol string, mech core.Mechanism) (*cluster.Cluster, net.Conn) {
	t.Helper()
	cfg, _ := testConfig(t, 2, pol, mech)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(cl.Close)
	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return cl, conn
}

func TestFrontEndDropsMalformedFirstRequest(t *testing.T) {
	_, conn := dialCluster(t, "extlard", core.BEForwarding)
	if _, err := conn.Write([]byte("NOT-HTTP GARBAGE\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The front-end must close the connection rather than wedge.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err == nil {
		t.Error("expected connection close after malformed request")
	}
}

func TestFrontEndServes404ForUnknownTarget(t *testing.T) {
	_, conn := dialCluster(t, "extlard", core.BEForwarding)
	req := httpmsg.Request{
		Method: "GET", Target: "/no/such/target", Proto: "HTTP/1.1",
		Headers: []httpmsg.Header{{Name: "Host", Value: "x"}},
	}
	if _, err := req.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("reading 404: %v", err)
	}
	if resp.Status != 404 {
		t.Errorf("status = %d, want 404", resp.Status)
	}
}

func TestFrontEndIdleTimeoutClosesConnection(t *testing.T) {
	sc := trace.SmallSynthConfig()
	sc.Connections = 50
	tr := trace.NewSynth(sc).Generate()
	cfg := cluster.DefaultConfig(1, tr.Sizes)
	cfg.TimeScale = 100
	cfg.CacheBytes = 8 << 20
	cfg.IdleTimeout = 300 * time.Millisecond
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
	// Send one valid request, read the response, then go idle.
	var target core.Target
	var size int64
	for tg, sz := range tr.Sizes {
		target, size = tg, sz
		break
	}
	req := httpmsg.Request{Method: "GET", Target: string(target), Proto: "HTTP/1.1"}
	if _, err := req.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := httpmsg.ReadResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != size {
		t.Fatalf("Content-Length %d, want %d", resp.ContentLength, size)
	}
	io.CopyN(io.Discard, br, resp.ContentLength)

	// The front-end's idle timer must now close the connection.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Error("connection still open after idle timeout")
	}
}

func TestDocStoreConcurrentOpens(t *testing.T) {
	catalog := map[core.Target]int64{}
	for _, tg := range []core.Target{"/a", "/b", "/c", "/d"} {
		catalog[tg] = 4096
	}
	ds := cluster.NewDocStore(catalog, 16<<10, server.DiskParams{Position: 50, TransferPer512: 1}, 1000)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			targets := []core.Target{"/a", "/b", "/c", "/d"}
			for j := 0; j < 200; j++ {
				if _, err := ds.Open(targets[(i+j)%4]); err != nil {
					t.Errorf("Open: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	h, m := ds.Counters()
	if h+m != 16*200 {
		t.Errorf("counted %d accesses, want %d", h+m, 16*200)
	}
	if ds.DiskQueue() != 0 {
		t.Errorf("disk queue %d after quiescence", ds.DiskQueue())
	}
}

func TestClusterStartValidation(t *testing.T) {
	if _, err := cluster.Start(cluster.Config{Nodes: 0}); err == nil {
		t.Error("accepted 0 nodes")
	}
	if _, err := cluster.Start(cluster.Config{Nodes: 1}); err == nil {
		t.Error("accepted empty catalog")
	}
	cfg := cluster.DefaultConfig(1, map[core.Target]int64{"/x": 1})
	cfg.Policy = "bogus"
	if _, err := cluster.Start(cfg); err == nil {
		t.Error("accepted unknown policy")
	}
	cfg = cluster.DefaultConfig(1, map[core.Target]int64{"/x": 1})
	cfg.RetryBudget = -1
	if _, err := cluster.Start(cfg); err == nil || !strings.Contains(err.Error(), "RetryBudget") {
		t.Errorf("negative retry budget: err = %v", err)
	}
}

// The response to a request that ends the connection is followed by the end
// of the stream, whoever writes it (the back-end on a handed-off socket, the
// front-end when relaying): the server closes first, an HTTP/1.0 client that
// reads to the end of the stream gets its response, and the connection's
// TIME_WAIT is the server's. The idle timeout is far away, so an end of
// stream seen here is the server's doing.
func TestServerEndsStreamAfterLastResponse(t *testing.T) {
	for _, mech := range []core.Mechanism{core.SingleHandoff, core.BEForwarding, core.RelayFrontEnd} {
		for _, req := range []httpmsg.Request{
			{Method: "GET", Target: firstTarget(t), Proto: "HTTP/1.0"},
			{Method: "GET", Target: firstTarget(t), Proto: "HTTP/1.1",
				Headers: []httpmsg.Header{{Name: "Connection", Value: "close"}}},
		} {
			_, conn := dialCluster(t, "wrr", mech)
			if _, err := req.WriteTo(conn); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := httpmsg.ReadResponse(br)
			if err != nil {
				t.Fatal(err)
			}
			if resp.KeepAlive() {
				t.Errorf("%v %s: response advertised keep-alive without the client asking", mech, req.Proto)
			}
			rest, err := io.ReadAll(br)
			if err != nil || int64(len(rest)) != resp.ContentLength {
				t.Errorf("%v %s: read %d body bytes to the end of the stream, %v; want %d and the server closing",
					mech, req.Proto, len(rest), err, resp.ContentLength)
			}
		}
	}
}

// A request that ends the connection — HTTP/1.0 without keep-alive, or
// Connection: close — is dispatched when it is parsed: no successor can
// follow it, so the front-end does not hold it for the batch window.
func TestNoBatchWindowAfterLastRequest(t *testing.T) {
	const window = 500 * time.Millisecond
	cfg, _ := testConfig(t, 1, "lard", core.SingleHandoff)
	cfg.BatchWindow = window
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	target := firstTarget(t)
	for _, req := range []httpmsg.Request{
		{Method: "GET", Target: target, Proto: "HTTP/1.0"},
		{Method: "GET", Target: target, Proto: "HTTP/1.1",
			Headers: []httpmsg.Header{{Name: "Connection", Value: "close"}}},
	} {
		// The fastest of three: a slow run is the machine's, a window wait
		// is in every run.
		fastest := time.Hour
		for i := 0; i < 3; i++ {
			conn, err := net.Dial("tcp", cl.Addr())
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if _, err := req.WriteTo(conn); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(20 * time.Second))
			if _, err := httpmsg.ReadResponse(bufio.NewReader(conn)); err != nil {
				t.Fatal(err)
			}
			fastest = min(fastest, time.Since(start))
			conn.Close()
		}
		if fastest >= window/2 {
			t.Errorf("%s request with %d headers answered in %v: it waited out the %v batch window",
				req.Proto, len(req.Headers), fastest, window)
		}
	}
}

// firstTarget returns a stable target from the small test catalog.
func firstTarget(t *testing.T) string {
	t.Helper()
	sc := trace.SmallSynthConfig()
	tr := trace.NewSynth(sc).Generate()
	var best core.Target
	for tg := range tr.Sizes {
		if best == "" || tg < best {
			best = tg
		}
	}
	return string(best)
}
