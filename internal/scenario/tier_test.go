package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"phttp/internal/cluster"
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

// TestTierRuleInValidate: a tier that no world runs — sharded state under
// back-end forwarding, the default's mechanism — fails in Validate, naming
// the key, with dstate.CheckTier's own message: for the cluster's tier and
// for each sweep.frontends entry.
func TestTierRuleInValidate(t *testing.T) {
	const rule = "dstate: sharded dispatch state requires the single-handoff mechanism"
	def, err := Builtin("default")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sets []string
		key  string
	}{
		{[]string{"cluster.frontends=4", "cluster.state=sharded"}, `cluster.frontends 4 with cluster.state "sharded"`},
		{[]string{"cluster.state=sharded", "sweep.frontends=[1,3]"}, `sweep.frontends 1 with cluster.state "sharded"`},
	} {
		_, err := def.With(tc.sets...)
		if err == nil || !strings.Contains(err.Error(), tc.key+": "+rule) {
			t.Errorf("-set %v: err = %v, want %q", tc.sets, err, tc.key+": "+rule)
		}
	}
}

// TestTierKeysReachPrototype: the tier keys compile into the prototype's
// cluster config, and through the same projection into every standalone
// front-end's, with cluster.stalenessMs as the wall-clock sync interval.
func TestTierKeysReachPrototype(t *testing.T) {
	for _, tc := range []struct {
		name, cluster, mechanism string
		state                    dstate.Mode
		sync                     time.Duration
	}{
		{"replicated", `{"nodes":2,"frontends":3,"state":"replicated","stalenessMs":20}`, "relay", dstate.ModeReplicated, 20 * time.Millisecond},
		{"sharded", `{"nodes":2,"frontends":3,"state":"sharded"}`, "singleHandoff", dstate.ModeSharded, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(`{"version":1,"workload":{},"policy":{"name":"lard"},
				"mechanism":"` + tc.mechanism + `","cluster":` + tc.cluster + `}`))
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := s.ToClusterConfig(map[core.Target]int64{"/x": 1})
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Frontends != 3 || cfg.State != tc.state || cfg.SyncInterval != tc.sync {
				t.Errorf("cluster config: frontends=%d state=%v sync=%v", cfg.Frontends, cfg.State, cfg.SyncInterval)
			}
			for fe := 0; fe < 3; fe++ {
				fecfg, err := s.ToFrontEndConfig(2, fe)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fecfg, cfg.FrontEnd(fe)) {
					t.Errorf("fe %d: ToFrontEndConfig %+v, want the cluster's projection %+v", fe, fecfg, cfg.FrontEnd(fe))
				}
				if fecfg.Frontends != 3 || fecfg.FEID != fe || fecfg.State != tc.state || fecfg.SyncInterval != tc.sync ||
					fecfg.IdleTimeout != 15*time.Second || fecfg.RetryBudget != cluster.DefaultRetryBudget {
					t.Errorf("fe %d: %+v", fe, fecfg)
				}
			}
		})
	}
}

// TestPrototypeRefusesNeverSync: replicas that never sync are the
// simulator's endpoint only; both prototype compilers refuse them.
func TestPrototypeRefusesNeverSync(t *testing.T) {
	s, err := Parse([]byte(`{"version":1,"workload":{},"policy":{"name":"lard"},
		"cluster":{"nodes":2,"frontends":2,"state":"replicated"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ToClusterConfig(map[core.Target]int64{"/x": 1}); err == nil || !strings.Contains(err.Error(), "stalenessMs") {
		t.Errorf("ToClusterConfig: %v, want a stalenessMs refusal", err)
	}
	if _, err := s.ToFrontEndConfig(2, 0); err == nil || !strings.Contains(err.Error(), "stalenessMs") {
		t.Errorf("ToFrontEndConfig: %v, want a stalenessMs refusal", err)
	}
}
