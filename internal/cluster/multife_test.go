package cluster_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/loadgen"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

// tierConfig builds a small 3-front-end / 3-back-end tier.
func tierConfig(t *testing.T, pol string, mech core.Mechanism, state dstate.Mode) (cluster.Config, *trace.Trace) {
	t.Helper()
	cfg, tr := testConfig(t, 3, pol, mech)
	cfg.Frontends = 3
	cfg.State = state
	cfg.SyncInterval = 10 * time.Millisecond
	return cfg, tr
}

// runTierLoad drives the trace through every front-end concurrently (each
// front-end replays the full trace — the point is plural dispatchers over
// shared back-ends, not input partitioning) and requires zero
// client-visible errors on every one.
func runTierLoad(t *testing.T, cl *cluster.Cluster, tr *trace.Trace) {
	t.Helper()
	var wg sync.WaitGroup
	results := make([]loadgen.Result, len(cl.FEs))
	errs := make([]error, len(cl.FEs))
	for i, addr := range cl.FEAddrs() {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			results[i], errs[i] = loadgen.Run(loadgen.Config{
				Addr:        addr,
				Trace:       tr,
				Concurrency: 8,
				Verify:      true,
				IOTimeout:   20 * time.Second,
			})
		}(i, addr)
	}
	wg.Wait()
	want := int64(tr.Requests())
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("frontend %d loadgen: %v", i, errs[i])
		}
		if results[i].Errors != 0 {
			t.Errorf("frontend %d: %d client-visible errors (corruption, size mismatch or status)", i, results[i].Errors)
		}
		if results[i].Requests != want {
			t.Errorf("frontend %d served %d requests, want %d", i, results[i].Requests, want)
		}
	}
}

// TestMultiFESharded runs a 3-front-end tier with the target space
// partitioned across the members: every connection open for a non-owned
// target forwards its state transaction to the shard owner, and the whole
// trace must still come back byte-correct from every front-end.
func TestMultiFESharded(t *testing.T) {
	cfg, tr := tierConfig(t, "lard", core.SingleHandoff, dstate.ModeSharded)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start tier: %v", err)
	}
	defer cl.Close()
	runTierLoad(t, cl, tr)

	// The shard ring spreads ownership, so with three dispatchers over a
	// few hundred targets at least one open per front-end must have been
	// decided remotely — all-local would mean forwarding never engaged.
	remote := false
	for i, fe := range cl.FEs {
		if n := fe.RemoteOpens(); n > 0 {
			remote = true
		} else {
			t.Logf("frontend %d decided every open locally", i)
		}
		if fb := fe.TierFallbacks(); fb != 0 {
			t.Errorf("frontend %d fell back %d times with every peer healthy", i, fb)
		}
	}
	if !remote {
		t.Error("no front-end forwarded a single open: sharded ownership never engaged")
	}
}

// TestMultiFEReplicated runs a 3-front-end tier with fully replicated
// dispatch state under bounded staleness: every member decides locally and
// the periodic sync exchanges mapping deltas and load vectors.
func TestMultiFEReplicated(t *testing.T) {
	cfg, tr := tierConfig(t, "extlard", core.BEForwarding, dstate.ModeReplicated)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start tier: %v", err)
	}
	defer cl.Close()

	// Bounded staleness: every replica must hear its peers' load vectors
	// (a non-zero remote conn count on some node). Watched while the load
	// runs — once it has drained the vectors truthfully say zero.
	seen := make([]atomic.Bool, len(cl.FEs))
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			for i, fe := range cl.FEs {
				if !seen[i].Load() && fe.RemoteConnsSeen() {
					seen[i].Store(true)
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	runTierLoad(t, cl, tr)
	close(stop)
	watch.Wait()

	for i, fe := range cl.FEs {
		if fe.TierSyncs() == 0 {
			t.Errorf("frontend %d completed zero replication rounds", i)
		}
		if !seen[i].Load() {
			t.Errorf("frontend %d never saw a peer load vector", i)
		}
	}
}

// TestMultiFEReplicatedRelay runs a replicated tier that relays. Each
// front-end's responses come back on its own session to each back-end, the
// one that carried its requests, so every member serves the whole trace.
func TestMultiFEReplicatedRelay(t *testing.T) {
	cfg, tr := tierConfig(t, "extlard", core.RelayFrontEnd, dstate.ModeReplicated)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start tier: %v", err)
	}
	defer cl.Close()
	runTierLoad(t, cl, tr)
}

// TestMultiFEConfigValidation pins the tier configuration rules: a plural
// tier must pick a non-local state backend, sharded requires the
// single-handoff mechanism, and member IDs must lie inside the tier.
func TestMultiFEConfigValidation(t *testing.T) {
	base, _ := testConfig(t, 2, "lard", core.SingleHandoff)
	cases := []struct {
		name string
		mut  func(*cluster.Config)
	}{
		{"plural tier without state backend", func(c *cluster.Config) {
			c.Frontends = 2
		}},
		{"sharded over BE forwarding", func(c *cluster.Config) {
			c.Frontends = 2
			c.State = dstate.ModeSharded
			c.Mechanism = core.BEForwarding
			c.Policy = "extlard"
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if cl, err := cluster.Start(cfg); err == nil {
			cl.Close()
			t.Errorf("%s: Start accepted an invalid tier configuration", tc.name)
		}
	}
}

// TestMultiFETierRuleSharedWithSimulator: the simulator and the prototype
// refuse a sharded tier under BE forwarding with one message — the tier
// rule both apply, dstate.CheckTier.
func TestMultiFETierRuleSharedWithSimulator(t *testing.T) {
	combo, err := sim.ComboByName("BEforward-extLARD-PHTTP")
	if err != nil {
		t.Fatal(err)
	}
	simCfg := sim.DefaultConfig(6, combo)
	simCfg.Frontends, simCfg.FEState = 4, dstate.ModeSharded
	simErr := simCfg.Validate()
	_, feErr := cluster.NewFrontEnd(cluster.FrontEndConfig{
		Nodes: 6, Policy: "extlard", Mechanism: core.BEForwarding, Frontends: 4, State: dstate.ModeSharded,
	}, make([]cluster.BackendEndpoints, 6))
	if simErr == nil || feErr == nil || simErr.Error() != feErr.Error() {
		t.Fatalf("simulator: %v\nprototype: %v\nwant both refused with one message", simErr, feErr)
	}
}
