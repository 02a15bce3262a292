package scenario

import (
	"os"
	"testing"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/loadgen"
	"phttp/internal/policy"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// smallScenario is a policy-driven scenario over a tiny synthetic workload,
// written to disk and loaded back — the full user path.
func smallScenario(t *testing.T, policyJSON string) *Spec {
	t.Helper()
	path := t.TempDir() + "/s.json"
	src := `{"version":1,
		"workload":{"synth":{"connections":800,"pages":120,"objects":260}},
		"policy":` + policyJSON + `,
		"mechanism":"singleHandoff",
		"cluster":{"nodes":3,"cacheMB":4,"timeScale":2000,"clients":24,"warmupFrac":0.1}}`
	if err := writeFile(path, src); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPolicyOptionsSimAndPrototypeFromOneScenario: one scenario file's
// policy options reach both the trace-driven simulator and the networked
// prototype cluster, and the prototype's policy honours them (its mapping
// stays within the option's cache-bytes budget, not cacheMB's).
func TestPolicyOptionsSimAndPrototypeFromOneScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real cluster sockets")
	}
	const budget = 64 << 10
	s := smallScenario(t, `{"name":"lard","options":{"l-idle":20,"cache-bytes":65536}}`)

	// Simulator leg.
	simCfg, err := s.ToSimConfig()
	if err != nil {
		t.Fatalf("ToSimConfig: %v", err)
	}
	if simCfg.PolicyOptions["l-idle"] != 20.0 || simCfg.PolicyOptions["cache-bytes"] != 65536.0 {
		t.Errorf("sim config lost the policy options: %v", simCfg.PolicyOptions)
	}
	wl := s.LoadWorkload()
	res, err := sim.Run(simCfg, wl.PHTTP)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if res.Policy != "lard" {
		t.Errorf("sim ran policy %q, want lard", res.Policy)
	}
	if res.Requests == 0 || res.Throughput <= 0 {
		t.Errorf("sim served nothing: %+v", res)
	}

	// Prototype leg: same spec compiles the cluster and the load
	// generator; the run must complete with zero errors.
	clCfg, err := s.ToClusterConfig(wl.PHTTP.Catalog())
	if err != nil {
		t.Fatalf("ToClusterConfig: %v", err)
	}
	if clCfg.Policy != "lard" || clCfg.TimeScale != 2000 || clCfg.PolicyOptions["cache-bytes"] != 65536.0 {
		t.Fatalf("compiled cluster config %+v", clCfg)
	}
	cl, err := cluster.Start(clCfg)
	if err != nil {
		t.Fatalf("cluster.Start: %v", err)
	}
	if got := cl.FE.PolicyName(); got != "lard" {
		t.Errorf("front-end runs %q, want lard", got)
	}
	lgCfg, err := s.ToLoadgenConfig(cl.Addr(), wl)
	if err != nil {
		t.Fatalf("ToLoadgenConfig: %v", err)
	}
	lgCfg.IOTimeout = time.Minute
	lres, err := loadgen.Run(lgCfg)
	cl.Close()
	if err != nil {
		t.Fatalf("loadgen.Run: %v", err)
	}
	if lres.Errors != 0 {
		t.Errorf("prototype run had %d request errors", lres.Errors)
	}
	if lres.Requests == 0 {
		t.Errorf("prototype served nothing")
	}
	m := cl.FE.Policy().(*policy.LARD).Mapping()
	var mapped int64
	for n := 0; n < m.Nodes(); n++ {
		b := m.MappedBytes(core.NodeID(n))
		if b > budget {
			t.Errorf("node %d maps %d bytes, over the cache-bytes option's %d", n, b, budget)
		}
		mapped += b
	}
	if mapped == 0 {
		t.Error("the prototype's mapping holds nothing")
	}
}

func TestToClusterConfigDefaults(t *testing.T) {
	s, err := Parse([]byte(`{"version":1,"workload":{},"policy":{"name":"extlard"},
		"mechanism":"beforward","cluster":{"nodes":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[core.Target]int64{"/x": 1 << 10}
	cfg, err := s.ToClusterConfig(catalog)
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.DefaultConfig(2, catalog)
	want.Policy = "extlard"
	want.Mechanism = core.BEForwarding
	if cfg.CacheBytes != want.CacheBytes || cfg.Mechanism != want.Mechanism ||
		cfg.Policy != want.Policy || cfg.TimeScale != want.TimeScale {
		t.Errorf("compiled %+v, want defaults %+v", cfg, want)
	}
}

func TestToClusterConfigRejectsCombos(t *testing.T) {
	s := mustBuiltin(t, "fig7")
	if _, err := s.ToClusterConfig(map[core.Target]int64{"/x": 1}); err == nil {
		t.Error("combos sweep compiled for the prototype")
	}
	if _, err := s.ToFrontEndConfig(2, 0); err == nil {
		t.Error("combos sweep compiled for the front-end")
	}
}

func TestToFrontEndConfig(t *testing.T) {
	s, err := Parse([]byte(`{"version":1,"workload":{},
		"policy":{"name":"lard","options":{"miss-cost":50}},
		"cluster":{"nodes":3,"cacheMB":8,"maxTargets":1000}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.ToFrontEndConfig(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != "lard" || cfg.CacheBytes != 8<<20 || cfg.MaxTargets != 1000 || cfg.Nodes != 3 ||
		cfg.RetryBudget != cluster.DefaultRetryBudget {
		t.Errorf("compiled %+v", cfg)
	}
	if cfg.PolicyOptions["miss-cost"] != 50.0 {
		t.Errorf("policy options lost: %v", cfg.PolicyOptions)
	}
}

func TestToLoadgenConfigFlattens(t *testing.T) {
	s, err := Parse([]byte(`{"version":1,"workload":{"http10":true},
		"policy":{"name":"wrr"},"cluster":{"nodes":2,"clients":16}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.SmallSynthConfig()
	cfg.Connections = 300
	wl := trace.NewWorkload(trace.NewSynth(cfg).Generate())
	lg, err := s.ToLoadgenConfig("127.0.0.1:1", wl)
	if err != nil {
		t.Fatal(err)
	}
	if !lg.HTTP10 || lg.Trace != wl.PHTTP || lg.Concurrency != 16 || lg.Addr != "127.0.0.1:1" {
		t.Errorf("compiled %+v", lg)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("/no/such/scenario.json"); err == nil {
		t.Error("Load accepted a missing file")
	}
	path := t.TempDir() + "/bad.json"
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("Load accepted malformed JSON")
	}
}

// TestGenericNodesSweep covers the policy-driven node-axis grid plus the
// HTTP/1.0 label default.
func TestGenericNodesSweep(t *testing.T) {
	s, err := Parse([]byte(`{"version":1,"workload":{"http10":true},
		"policy":{"name":"lardr"},"sweep":{"nodes":[1,2,4]}}`))
	if err != nil {
		t.Fatal(err)
	}
	points, err := s.ToSimGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("grid has %d points, want 3", len(points))
	}
	for i, wantN := range []int{1, 2, 4} {
		p := points[i]
		if p.Config.Nodes != wantN || p.X != float64(wantN) {
			t.Errorf("point %d: nodes %d x %g", i, p.Config.Nodes, p.X)
		}
		if p.Label != "lardr" || p.Config.Combo.PHTTP {
			t.Errorf("point %d: label %q PHTTP %v (http10 workload)", i, p.Label, p.Config.Combo.PHTTP)
		}
	}
}

// TestLoadgenConfigMatchesLegacyDefaults pins the loadgen compile against
// the flag path's defaults (verify on, warmup 0.2).
func TestLoadgenConfigMatchesLegacyDefaults(t *testing.T) {
	s, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	wl := trace.NewWorkload(trace.NewSynth(trace.SmallSynthConfig()).Generate())
	lg, err := s.ToLoadgenConfig("addr", wl)
	if err != nil {
		t.Fatal(err)
	}
	want := loadgen.Config{Addr: "addr", Trace: wl.PHTTP, WarmupFrac: 0.2, Verify: true}
	if lg.WarmupFrac != want.WarmupFrac || lg.Verify != want.Verify || lg.Trace != want.Trace || lg.HTTP10 {
		t.Errorf("compiled %+v, want %+v", lg, want)
	}
}
