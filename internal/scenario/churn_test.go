package scenario

import (
	"reflect"
	"strings"
	"testing"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

// churnSpecJSON is a small, fast churn scenario used across these tests:
// a 3-node LARD cluster whose node 1 crashes early and rejoins later.
const churnSpecJSON = `{
  "version": 1,
  "name": "churn-test",
  "workload": {"synth": {"connections": 2000}},
  "policy": {"name": "lard"},
  "cluster": {"nodes": 3, "retryBudget": 2},
  "sweep": {"nodes": [3, 4]},
  "churn": {
    "events": [
      {"atMs": 50, "kind": "crash", "node": 1},
      {"atMs": 200, "kind": "join", "node": 1}
    ]
  }
}`

func TestChurnSpecParses(t *testing.T) {
	s, err := Parse([]byte(churnSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.Churn == nil || len(s.Churn.Events) != 2 {
		t.Fatalf("churn block not parsed: %+v", s.Churn)
	}
	if s.Cluster.RetryBudget == nil || *s.Cluster.RetryBudget != 2 {
		t.Fatalf("retryBudget not parsed: %+v", s.Cluster.RetryBudget)
	}
}

func TestChurnSpecValidation(t *testing.T) {
	cases := []struct {
		name, from, to, want string
	}{
		{"unknown field", `"atMs": 50`, `"at": 50`, "unknown field"},
		{"bad kind", `"kind": "crash"`, `"kind": "explode"`, "churn kind"},
		{"node beyond smallest sweep point", `"node": 1`, `"node": 3`, "out of range"},
		{"negative time", `"atMs": 50`, `"atMs": -1`, "atMs"},
		{"negative budget", `"retryBudget": 2`, `"retryBudget": -1`, "retryBudget"},
		{"budget under churn", `"events": [`, `"retryBudget": 2, "events": [`, "unknown field"},
		{"empty events", `"events": [
      {"atMs": 50, "kind": "crash", "node": 1},
      {"atMs": 200, "kind": "join", "node": 1}
    ]`, `"events": []`, "churn.events is empty"},
	}
	for _, tc := range cases {
		bad := strings.Replace(churnSpecJSON, tc.from, tc.to, 1)
		if bad == churnSpecJSON {
			t.Fatalf("%s: replacement %q not found", tc.name, tc.from)
		}
		_, err := Parse([]byte(bad))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Parse() err = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestChurnCompilesToSimEvents(t *testing.T) {
	s, err := Parse([]byte(churnSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := s.ToSimGrid()
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.ChurnEvent{
		{At: 50_000, Kind: sim.ChurnCrash, Node: 1},
		{At: 200_000, Kind: sim.ChurnJoin, Node: 1},
	}
	for _, p := range grid {
		if !reflect.DeepEqual(p.Config.Churn, want) {
			t.Fatalf("compiled churn = %+v, want %+v", p.Config.Churn, want)
		}
		if p.Config.RetryBudget != 2 {
			t.Fatalf("compiled retry budget = %d, want 2", p.Config.RetryBudget)
		}
	}
}

func TestChurnRetryBudgetDefault(t *testing.T) {
	s, err := Parse([]byte(strings.Replace(churnSpecJSON, `, "retryBudget": 2`, "", 1)))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := s.ToSimGrid()
	if err != nil {
		t.Fatal(err)
	}
	if grid[0].Config.RetryBudget != cluster.DefaultRetryBudget {
		t.Fatalf("default retry budget = %d, want %d", grid[0].Config.RetryBudget, cluster.DefaultRetryBudget)
	}
	// An explicit zero must survive (fail on first loss).
	s2, err := Parse([]byte(strings.Replace(churnSpecJSON, `"retryBudget": 2`, `"retryBudget": 0`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	grid2, err := s2.ToSimGrid()
	if err != nil {
		t.Fatal(err)
	}
	if grid2[0].Config.RetryBudget != 0 {
		t.Fatalf("explicit zero retry budget compiled to %d", grid2[0].Config.RetryBudget)
	}
}

func TestChurnIsSimulatorOnly(t *testing.T) {
	s, err := Parse([]byte(churnSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	s.Sweep = nil // prototype compilation rejects sweeps before churn
	if _, err := s.ToClusterConfig(map[core.Target]int64{"/a": 1}); err == nil || !strings.Contains(err.Error(), "simulator-only") {
		t.Errorf("ToClusterConfig with churn: err = %v", err)
	}
	if _, err := s.ToFrontEndConfig(3, 0); err == nil || !strings.Contains(err.Error(), "simulator-only") {
		t.Errorf("ToFrontEndConfig with churn: err = %v", err)
	}
}

func TestChurnCrashBuiltinVerifies(t *testing.T) {
	s, err := Builtin("churn-crash")
	if err != nil {
		t.Fatal(err)
	}
	if s.Churn == nil || len(s.Churn.Events) == 0 {
		t.Fatal("churn-crash builtin carries no churn schedule")
	}
}

// TestChurnGridWorkerCountBitIdentical is the churn determinism golden:
// the same compiled grid run by sim.RunGrid serially and on four workers
// must produce byte-identical results — churn events are simulation
// state, not wall-clock state, so worker scheduling (and each worker's
// reused engine) cannot leak into them.
func TestChurnGridWorkerCountBitIdentical(t *testing.T) {
	s, err := Parse([]byte(churnSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := s.ToSimGrid()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]sim.Config, len(grid))
	for i, p := range grid {
		cfgs[i] = p.Config
	}
	wl := trace.NewWorkload(trace.NewSynth(s.SynthConfig()).Generate())

	serial, err := sim.RunGrid(cfgs, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The schedule must actually engage mid-run, or this golden proves
	// nothing about churn.
	engaged := false
	for _, r := range serial {
		engaged = engaged || r.Redispatches > 0
	}
	if !engaged {
		t.Fatal("no grid point re-dispatched: crash landed outside the run window")
	}

	parallel, err := sim.RunGrid(cfgs, wl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("worker-count dependent churn results:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
