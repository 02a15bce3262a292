package scenario

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/loadgen"
	"phttp/internal/server"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

// TestSetReachesRemovedFlags: every run-shaping flag the binaries used to
// take is a -set away. Each row names the flag with the value it was
// given, the -set form and the field the binary compiles from the spec;
// want is what the flag put in that field.
func TestSetReachesRemovedFlags(t *testing.T) {
	wl := trace.NewWorkload(trace.NewSynth(trace.SmallSynthConfig()).Generate())
	catalog := map[core.Target]int64{"/x": 1}
	fe := func(t *testing.T, s *Spec) cluster.FrontEndConfig {
		cfg, err := s.ToFrontEndConfig(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	proto := func(t *testing.T, s *Spec) cluster.Config {
		cfg, err := s.ToClusterConfig(catalog)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	lg := func(t *testing.T, s *Spec) loadgen.Config {
		cfg, err := s.ToLoadgenConfig("addr", wl)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	simCfg := func(t *testing.T, s *Spec) sim.Config {
		cfg, err := s.ToSimConfig()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	grid := func(t *testing.T, s *Spec) []*Spec {
		points, err := s.PrototypeGrid()
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	seed := func(t *testing.T, s *Spec) any { return s.SynthConfig().Seed }
	conns := func(t *testing.T, s *Spec) any { return s.SynthConfig().Connections }
	wrr, err := sim.ComboByName("WRR")
	if err != nil {
		t.Fatal(err)
	}
	tier := []string{"cluster.frontends=3", "cluster.state=sharded", "mechanism=singleHandoff"}
	replicas := []string{"cluster.frontends=2", "cluster.state=replicated", "cluster.stalenessMs=20"}

	for _, tc := range []struct {
		flag     string // the removed flag and its value
		scenario string // the binary's default scenario
		set      []string
		get      func(*testing.T, *Spec) any
		want     any
	}{
		{"phttp-frontend -policy lard", "default", []string{"policy.name=lard"},
			func(t *testing.T, s *Spec) any { return fe(t, s).Policy }, "lard"},
		{"phttp-frontend -mechanism relay", "default", []string{"mechanism=relay"},
			func(t *testing.T, s *Spec) any { return fe(t, s).Mechanism }, core.RelayFrontEnd},
		{"phttp-frontend -cache-mb 8", "default", []string{"cluster.cacheMB=8"},
			func(t *testing.T, s *Spec) any { return fe(t, s).CacheBytes }, int64(8 << 20)},
		{"phttp-frontend -max-targets 100", "default", []string{"cluster.maxTargets=100"},
			func(t *testing.T, s *Spec) any { return fe(t, s).MaxTargets }, 100},
		{"phttp-frontend -retry-budget 0", "default", []string{"cluster.retryBudget=0"},
			func(t *testing.T, s *Spec) any { return fe(t, s).RetryBudget }, 0},
		{"phttp-frontend -frontends 3", "default", tier,
			func(t *testing.T, s *Spec) any { return fe(t, s).Frontends }, 3},
		{"phttp-frontend -state sharded", "default", tier,
			func(t *testing.T, s *Spec) any { return fe(t, s).State }, dstate.ModeSharded},
		{"phttp-frontend -sync-interval 20ms", "default", replicas,
			func(t *testing.T, s *Spec) any { return fe(t, s).SyncInterval }, 20 * time.Millisecond},

		{"phttp-backend -cache-mb 8", "default", []string{"cluster.cacheMB=8"},
			func(t *testing.T, s *Spec) any { return proto(t, s).Backend(0, "be.sock").CacheBytes }, int64(8 << 20)},
		{"phttp-backend -seed 7", "default", []string{"workload.synth.seed=7"}, seed, uint64(7)},
		{"phttp-backend -time-scale 50", "default", []string{"cluster.timeScale=50"},
			func(t *testing.T, s *Spec) any { return proto(t, s).Backend(0, "be.sock").TimeScale }, 50.0},

		{"phttp-loadgen -clients 8", "default", []string{"cluster.clients=8"},
			func(t *testing.T, s *Spec) any { return lg(t, s).Concurrency }, 8},
		{"phttp-loadgen -http10", "default", []string{"workload.http10=true"},
			func(t *testing.T, s *Spec) any { return lg(t, s).HTTP10 }, true},
		{"phttp-loadgen -connections 300", "default", []string{"workload.synth.connections=300"}, conns, 300},
		{"phttp-loadgen -seed 7", "default", []string{"workload.synth.seed=7"}, seed, uint64(7)},
		{"phttp-loadgen -warmup 0.1", "default", []string{"cluster.warmupFrac=0.1"},
			func(t *testing.T, s *Spec) any { return lg(t, s).WarmupFrac }, 0.1},

		{"phttp-tracegen -connections 300", "default", []string{"workload.synth.connections=300"}, conns, 300},
		{"phttp-tracegen -seed 7", "default", []string{"workload.synth.seed=7"}, seed, uint64(7)},

		{"phttp-sim -combo WRR", "default", []string{"policy.name=wrr", "mechanism=singleHandoff", "workload.http10=true", "policy.label=WRR"},
			func(t *testing.T, s *Spec) any { return simCfg(t, s).Combo }, wrr},
		{"phttp-sim -nodes 2", "default", []string{"cluster.nodes=2"},
			func(t *testing.T, s *Spec) any { return simCfg(t, s).Nodes }, 2},
		{"phttp-sim -server flash", "default", []string{"server.model=flash"},
			func(t *testing.T, s *Spec) any { return simCfg(t, s).Server }, server.CostsFor(core.Flash)},
		{"phttp-sim -connections 300", "default", []string{"workload.synth.connections=300"}, conns, 300},
		{"phttp-sim -seed 7", "default", []string{"workload.synth.seed=7"}, seed, uint64(7)},
		{"phttp-sim -frontends 3", "default", tier,
			func(t *testing.T, s *Spec) any { return simCfg(t, s).Frontends }, 3},
		{"phttp-sim -state sharded", "default", tier,
			func(t *testing.T, s *Spec) any { return simCfg(t, s).FEState }, dstate.ModeSharded},
		{"phttp-sim -staleness 20ms", "default", replicas,
			func(t *testing.T, s *Spec) any { return simCfg(t, s).Staleness }, core.Micros(20 * core.Millisecond)},

		{"phttp-bench -max-nodes 2", "fig13", []string{"sweep.nodes=[1,2]"},
			func(t *testing.T, s *Spec) any {
				var nodes []int
				for _, p := range grid(t, s)[:2] {
					nodes = append(nodes, p.Cluster.Nodes)
				}
				return nodes
			}, []int{1, 2}},
		{"phttp-bench -connections 300", "fig13", []string{"workload.synth.connections=300"}, conns, 300},
		{"phttp-bench -seed 7", "fig13", []string{"workload.synth.seed=7"}, seed, uint64(7)},
		{"phttp-bench -time-scale 20", "fig13", []string{"cluster.timeScale=20"},
			func(t *testing.T, s *Spec) any { return proto(t, grid(t, s)[0]).TimeScale }, 20.0},
		{"phttp-bench -clients 8", "fig13", []string{"cluster.clients=8"},
			func(t *testing.T, s *Spec) any { return lg(t, grid(t, s)[0]).Concurrency }, 8},
		{"phttp-bench -cache-mb 8", "fig13", []string{"cluster.cacheMB=8"},
			func(t *testing.T, s *Spec) any { return proto(t, grid(t, s)[0]).CacheBytes }, int64(8 << 20)},
		{"phttp-bench -only WRR", "fig13", []string{`sweep.combos=["WRR"]`},
			func(t *testing.T, s *Spec) any {
				labels := map[string]bool{}
				for _, p := range grid(t, s) {
					labels[p.Label()] = true
				}
				return labels
			}, map[string]bool{"WRR": true}},

		{"phttp-analytic -server flash", "default", []string{"server.model=flash"},
			func(t *testing.T, s *Spec) any { k, _ := s.ServerKind(); return k }, core.Flash},
		{"phttp-analytic -nodes 2", "default", []string{"cluster.nodes=2"},
			func(t *testing.T, s *Spec) any { return s.Cluster.Nodes }, 2},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			s, err := mustBuiltin(t, tc.scenario).With(tc.set...)
			if err != nil {
				t.Fatal(err)
			}
			if got := tc.get(t, s); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("-set %s: got %v, want %v", strings.Join(tc.set, " -set "), got, tc.want)
			}
		})
	}
}

// TestSetValueKinds: a value is JSON when it parses, else a bare string,
// and missing objects on a key's path are created.
func TestSetValueKinds(t *testing.T) {
	s, err := mustBuiltin(t, "default").With(
		"cluster.nodes=2",                          // number
		"workload.http10=true",                     // bool
		`policy.name="lard"`,                       // quoted string
		"policy.label=my run",                      // bare string
		"policy.options.l-idle=20",                 // nested, map created
		`policy.options={"miss-cost":50}`,          // object, replacing the map
		"workload.synth.seed=18446744073709551615", // 64 bits, exact
		"sweep.nodes=[1,3]",                        // array, sweep created
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cluster.Nodes != 2 || !s.Workload.HTTP10 || s.Policy.Name != "lard" || s.Policy.Label != "my run" {
		t.Errorf("scalars: %+v %+v %+v", s.Cluster, s.Workload, s.Policy)
	}
	if !reflect.DeepEqual(s.Policy.Options, map[string]any{"miss-cost": 50.0}) {
		t.Errorf("options = %v", s.Policy.Options)
	}
	if s.Workload.Synth.Seed != 1<<64-1 {
		t.Errorf("seed = %d", s.Workload.Synth.Seed)
	}
	if s.Sweep == nil || !reflect.DeepEqual(s.Sweep.Nodes, []int{1, 3}) {
		t.Errorf("sweep = %+v", s.Sweep)
	}
	// null clears a key: a combos sweep becomes a policy run.
	s, err = mustBuiltin(t, "fig7").With("sweep=null", "policy.name=wrr", "cluster.nodes=2")
	if err != nil || s.Sweep != nil || s.Policy.Name != "wrr" {
		t.Errorf("clearing the sweep: %+v, %v", s, err)
	}
	// The last -set of a key wins.
	if s, err = mustBuiltin(t, "default").With("cluster.nodes=2", "cluster.nodes=3"); err != nil || s.Cluster.Nodes != 3 {
		t.Errorf("last -set: nodes %d, %v", s.Cluster.Nodes, err)
	}
}

// TestSetErrorsNameTheOverride: a misspelled key, a mistyped value or a
// path through a scalar fails as it would in a file, naming the -set.
func TestSetErrorsNameTheOverride(t *testing.T) {
	for _, tc := range []struct{ set, want string }{
		{"cluster.cachMB=4", `-set cluster.cachMB=4: json: unknown field "cachMB"`},
		{"cluster.cachemb=4", `-set cluster.cachemb=4: json: unknown field "cluster.cachemb"`},
		{"cluster.nodes=abc", "-set cluster.nodes=abc: json: cannot unmarshal string"},
		{"cluster.nodes.x=1", "-set cluster.nodes.x=1: cluster.nodes is not an object"},
		{"policy.name=nosuch", "-set policy.name=nosuch: dispatch: unknown policy"},
	} {
		_, err := mustBuiltin(t, "default").With("cluster.nodes=2", tc.set)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-set %s: err = %v, want it to contain %q", tc.set, err, tc.want)
		}
	}
}

// TestFlags: the helper registers -scenario with the binary's default and
// the repeatable -set, and resolves them in order.
func TestFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	resolve := Flags(fs, "default")
	if err := fs.Parse([]string{"-set", "cluster.nodes=2", "-set", "server.model=flash"}); err != nil {
		t.Fatal(err)
	}
	s, err := resolve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "default" || s.Cluster.Nodes != 2 || s.Server.Model != "flash" {
		t.Errorf("resolved %+v", s)
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Flags(fs, "default")
	if err := fs.Parse([]string{"-set", "cluster.nodes"}); err == nil {
		t.Error("-set without = accepted")
	}
}
