package scenario

import (
	"strings"
	"testing"

	"phttp/internal/core"
	"phttp/internal/dstate"
)

// TestTierSingleRunCompile pins the cluster tier fields through ToSimConfig:
// frontends, the state backend, and the staleness window in milliseconds
// converted to virtual-time micros.
func TestTierSingleRunCompile(t *testing.T) {
	s, err := Parse([]byte(`{"version":1,"workload":{},
		"policy":{"name":"lard"},
		"cluster":{"nodes":3,"frontends":3,"state":"replicated","stalenessMs":50}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.ToSimConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Frontends != 3 || cfg.FEState != dstate.ModeReplicated {
		t.Errorf("tier fields lost: frontends=%d state=%v", cfg.Frontends, cfg.FEState)
	}
	if want := core.Micros(50 * core.Millisecond); cfg.Staleness != want {
		t.Errorf("staleness = %d micros, want %d", cfg.Staleness, want)
	}
}

// TestTierZeroConfigStaysLegacy guards the golden guarantee: a scenario
// with no tier fields compiles with every tier field zero, so the config
// stays the one the figure goldens were recorded with.
func TestTierZeroConfigStaysLegacy(t *testing.T) {
	s, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.ToSimConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Frontends != 0 || cfg.FEState != dstate.ModeLocal || cfg.Staleness != 0 {
		t.Errorf("tier fields leaked into a tier-free config: %+v", cfg)
	}
}

// TestFrontendsSweep compiles the front-end-tier-size axis: one point per
// tier size at the fixed node count, each running the swept state backend
// (the 1-front-end point is the locality baseline, still a tier of one).
func TestFrontendsSweep(t *testing.T) {
	s, err := Parse([]byte(`{"version":1,"workload":{},
		"policy":{"name":"lard"},
		"cluster":{"nodes":4,"state":"sharded"},
		"sweep":{"frontends":[1,2,4]}}`))
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
	for i, wantF := range []int{1, 2, 4} {
		p := points[i]
		if p.Config.Frontends != wantF || p.X != float64(wantF) {
			t.Errorf("point %d: frontends %d x %g", i, p.Config.Frontends, p.X)
		}
		if p.Config.Nodes != 4 || p.Config.FEState != dstate.ModeSharded {
			t.Errorf("point %d: nodes %d state %v", i, p.Config.Nodes, p.Config.FEState)
		}
		if p.Config.Staleness != 0 {
			t.Errorf("point %d: sharded sweep picked up staleness %d", i, p.Config.Staleness)
		}
	}
}

// TestStalenessSweep compiles the replication-staleness axis: X is the
// sync interval in milliseconds (0 = never sync), the tier size comes
// from cluster.frontends.
func TestStalenessSweep(t *testing.T) {
	s, err := Parse([]byte(`{"version":1,"workload":{},
		"policy":{"name":"lard"},
		"cluster":{"nodes":4,"frontends":2,"state":"replicated"},
		"sweep":{"stalenessMs":[10,100,0]}}`))
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
	for i, wantMs := range []float64{10, 100, 0} {
		p := points[i]
		if p.X != wantMs {
			t.Errorf("point %d: x %g, want %g", i, p.X, wantMs)
		}
		if want := core.Micros(wantMs * float64(core.Millisecond)); p.Config.Staleness != want {
			t.Errorf("point %d: staleness %d micros, want %d", i, p.Config.Staleness, want)
		}
		if p.Config.Frontends != 2 || p.Config.FEState != dstate.ModeReplicated {
			t.Errorf("point %d: frontends %d state %v", i, p.Config.Frontends, p.Config.FEState)
		}
	}
}

// TestTierValidation walks every documented invalid tier combination.
func TestTierValidation(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{"frontends-need-state",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2,"frontends":2}}`,
			"needs cluster.state"},
		{"staleness-needs-replicated",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2,"frontends":2,"state":"sharded","stalenessMs":5}}`,
			"replicated state backend only"},
		{"unknown-state",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2,"frontends":2,"state":"paxos"}}`,
			"paxos"},
		{"negative-frontends",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2,"frontends":-1}}`,
			"non-negative"},
		{"sweep-frontends-needs-state",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2},"sweep":{"frontends":[1,2]}}`,
			"sweep.frontends needs cluster.state"},
		{"sweep-staleness-needs-replicated",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2,"frontends":2,"state":"sharded"},"sweep":{"stalenessMs":[10]}}`,
			"sweep.stalenessMs needs cluster.state replicated"},
		{"sweep-staleness-needs-replicas",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2,"state":"replicated"},"sweep":{"stalenessMs":[10]}}`,
			"frontends >= 2"},
		{"frontends-axis-exclusive",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2,"state":"sharded"},"sweep":{"frontends":[1,2],"nodes":[2,4]}}`,
			"its own axis"},
		{"staleness-axis-exclusive",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2,"frontends":2,"state":"replicated"},
			 "sweep":{"stalenessMs":[10],"loads":[8]}}`,
			"its own axis"},
		{"combos-reject-tier-axes",
			`{"version":1,"workload":{},
			 "cluster":{"state":"sharded"},
			 "sweep":{"combos":["LARD-PHTTP"],"nodes":[2],"frontends":[1,2]}}`,
			"front-end-tier axes"},
		{"negative-sweep-frontends",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2,"state":"sharded"},"sweep":{"frontends":[0]}}`,
			"must be positive"},
		{"negative-sweep-staleness",
			`{"version":1,"workload":{},"policy":{"name":"lard"},
			 "cluster":{"nodes":2,"frontends":2,"state":"replicated"},"sweep":{"stalenessMs":[-1]}}`,
			"non-negative"},
	} {
		_, err := Parse([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
