package cluster_test

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"phttp/internal/cache"
	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/loadgen"
	"phttp/internal/membership"
	"phttp/internal/policy"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// churnConfig is testConfig plus aggressive failure-detection timing, so
// a crash is confirmed Down in a few hundred milliseconds instead of the
// production default's two seconds.
func churnConfig(t *testing.T, nodes int, pol string, mech core.Mechanism) (cluster.Config, *trace.Trace) {
	t.Helper()
	cfg, tr := testConfig(t, nodes, pol, mech)
	cfg.HeartbeatTimeout = 150 * time.Millisecond
	cfg.ConfirmWindow = 150 * time.Millisecond
	cfg.HealthInterval = 25 * time.Millisecond
	cfg.RetryBudget = 3
	return cfg, tr
}

// waitForState polls until node n reaches state s at the front-end.
func waitForState(t *testing.T, fe *cluster.FrontEnd, n core.NodeID, s membership.State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fe.Membership().State(n) == s {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node %v never reached %v (now %v)", n, s, fe.Membership().State(n))
}

// TestCrashMidRunRedispatches is the crash-under-load end-to-end test:
// a back-end dies mid-run under the relay mechanism (the front-end owns
// every client socket, so correctness is fully observable), the failure
// detector confirms it Down, in-flight requests re-dispatch to survivors
// within the retry budget, and the client sees zero failures. Afterwards
// the slot rejoins cold via AddBackend and serves again, and teardown
// leaks no goroutines (the leak_test harness pattern).
func TestCrashMidRunRedispatches(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg, tr := churnConfig(t, 3, "extlard", core.RelayFrontEnd)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	const dead = core.NodeID(1)
	done := make(chan loadgen.Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := loadgen.Run(loadgen.Config{
			Addr: cl.Addr(), Trace: tr, Concurrency: 16,
			Verify: true, IOTimeout: 30 * time.Second,
		})
		errc <- err
		done <- res
	}()
	time.Sleep(200 * time.Millisecond)
	cl.BEs[dead].Close()
	waitForState(t, cl.FE, dead, membership.Down)

	if err := <-errc; err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	res := <-done
	if res.Errors != 0 {
		t.Errorf("%d client-visible failures; the retry budget should hide a single crash", res.Errors)
	}
	if want := int64(tr.Requests()); res.Requests != want {
		t.Errorf("served %d requests, want %d", res.Requests, want)
	}
	if got := cl.FE.Redispatches(); got == 0 {
		t.Error("no request was re-dispatched; the crash landed outside the run window")
	}

	// The dead node's dispatcher state must be released: extlard's
	// mapping drops every belief about a Down node (cold-start default).
	type mapper interface{ Mapping() *cache.Mapping }
	m, ok := cl.FE.Policy().(mapper)
	if !ok {
		t.Fatalf("policy %T exposes no mapping", cl.FE.Policy())
	}
	if got := m.Mapping().MappedTargets(dead); got != 0 {
		t.Errorf("dead node still holds %d mapped targets", got)
	}

	// Rejoin: a fresh back-end process takes the slot, cold.
	if _, err := cl.AddBackend(dead); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	waitForState(t, cl.FE, dead, membership.Up)
	res2 := runLoad(t, cl.Addr(), tr, false)
	if res2.Errors != 0 {
		t.Errorf("%d errors after rejoin", res2.Errors)
	}

	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
}

// TestDrainCompletesGracefully: a drained node finishes its work, takes
// no new connections, and the run sees no errors.
func TestDrainCompletesGracefully(t *testing.T) {
	cfg, tr := churnConfig(t, 3, "extlard", core.BEForwarding)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	done := make(chan loadgen.Result, 1)
	go func() {
		res, _ := loadgen.Run(loadgen.Config{
			Addr: cl.Addr(), Trace: tr, Concurrency: 16,
			Verify: true, IOTimeout: 30 * time.Second,
		})
		done <- res
	}()
	time.Sleep(150 * time.Millisecond)
	if err := cl.RemoveBackend(2); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitForState(t, cl.FE, 2, membership.Draining)
	res := <-done
	if res.Errors != 0 {
		t.Errorf("%d errors while draining", res.Errors)
	}
	if res.Requests != int64(tr.Requests()) {
		t.Errorf("served %d requests, want %d", res.Requests, tr.Requests())
	}
}

// TestNoUpBackendsReturns503: with every back-end confirmed Down, a new
// client gets 503 Service Unavailable with a Retry-After hint, and the
// refusal is counted.
func TestNoUpBackendsReturns503(t *testing.T) {
	cfg, _ := churnConfig(t, 1, "lard", core.SingleHandoff)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	cl.BEs[0].Close()
	waitForState(t, cl.FE, 0, membership.Down)

	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /any HTTP/1.1\r\nHost: cluster\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read status: %v", err)
	}
	if !strings.Contains(status, "503") {
		t.Fatalf("status line %q, want 503", strings.TrimSpace(status))
	}
	sawRetry := false
	for {
		line, err := br.ReadString('\n')
		if err != nil || strings.TrimSpace(line) == "" {
			break
		}
		if strings.HasPrefix(line, "Retry-After:") {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Error("503 carried no Retry-After header")
	}
	if got := cl.FE.Unavailable(); got == 0 {
		t.Error("503 refusal not counted in metrics")
	}
}

// refusedAddr returns a loopback address that refuses connections: bound
// once, then released.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestStartToleratesRefusedBackend: one unreachable back-end no longer
// aborts front-end start — the slot comes up Down and traffic flows to
// the reachable node.
func TestStartToleratesRefusedBackend(t *testing.T) {
	sc := trace.SmallSynthConfig()
	sc.Connections = 50
	tr := trace.NewSynth(sc).Generate()
	be, err := cluster.NewBackend(cluster.BackendConfig{
		ID:            1,
		Catalog:       tr.Sizes,
		CacheBytes:    8 << 20,
		Disk:          server.DefaultDisk(),
		Costs:         server.ApacheCosts(),
		TimeScale:     50,
		HandoffSocket: filepath.Join(t.TempDir(), "be1.sock"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	eps := []cluster.BackendEndpoints{
		{Ctrl: refusedAddr(t), Handoff: "/nonexistent"},
		{Ctrl: be.CtrlAddr(), Handoff: be.HandoffPath()},
	}
	fe, err := cluster.NewFrontEnd(cluster.FrontEndConfig{
		Nodes:       2,
		Policy:      "lard",
		Mechanism:   core.SingleHandoff,
		Params:      policy.DefaultParams(),
		CacheBytes:  8 << 20,
		DialRetries: 1,
		DialBackoff: 5 * time.Millisecond,
	}, eps)
	if err != nil {
		t.Fatalf("one refused back-end aborted start: %v", err)
	}
	defer fe.Close()
	if got := fe.Membership().Snapshot(); got[0] != membership.Down || got[1] != membership.Up {
		t.Fatalf("membership after partial start = %v, want [down up]", got)
	}

	res, err := loadgen.Run(loadgen.Config{
		Addr: fe.Addr(), Trace: tr, Concurrency: 4,
		Verify: true, IOTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if res.Errors != 0 {
		t.Errorf("%d errors with one vacant slot", res.Errors)
	}
}

// TestStartFailsWithZeroReachable pins the failure floor: when no
// back-end answers, start must still error.
func TestStartFailsWithZeroReachable(t *testing.T) {
	eps := []cluster.BackendEndpoints{
		{Ctrl: refusedAddr(t), Handoff: "/nonexistent"},
		{Ctrl: refusedAddr(t), Handoff: "/nonexistent"},
	}
	_, err := cluster.NewFrontEnd(cluster.FrontEndConfig{
		Nodes:       2,
		Policy:      "wrr",
		Mechanism:   core.SingleHandoff,
		Params:      policy.DefaultParams(),
		CacheBytes:  8 << 20,
		DialRetries: 1,
		DialBackoff: time.Millisecond,
	}, eps)
	if err == nil || !strings.Contains(err.Error(), "no reachable back-end") {
		t.Fatalf("err = %v, want no-reachable-back-end failure", err)
	}
}
