// phttp-bench drives the full prototype cluster (in-process: front-end,
// back-ends and load generator in one process, communicating over real
// sockets with real fd-passing handoff) across policies and cluster sizes,
// regenerating Figure 13 and the Section 8.2 front-end utilization figure,
// or the node axis of one declarative policy scenario.
//
//	phttp-bench                          # Figure 13, 1-6 nodes
//	phttp-bench -time-scale 20           # faster wall clock, same shape
//	phttp-bench -only WRR -max-nodes 2   # one combination
//	phttp-bench -scenario p2c            # a policy scenario on real sockets
//
// Simulated CPU/disk latencies are divided by -time-scale; reported
// throughput is normalized back (multiplied by 1/scale) so the numbers are
// comparable to the paper's 300 MHz-era hardware. Performance of the
// program itself is measured by the benchmark module (benchmark/), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/loadgen"
	"phttp/internal/metrics"
	"phttp/internal/scenario"
	"phttp/internal/trace"
)

// protoCombo is one prototype policy/mechanism/workload combination of
// Figure 13.
type protoCombo struct {
	name   string
	policy string
	mech   core.Mechanism
	http10 bool
}

func protoCombos() []protoCombo {
	return []protoCombo{
		{"BEforward-extLARD-PHTTP", "extlard", core.BEForwarding, false},
		{"simple-LARD", "lard", core.SingleHandoff, true},
		{"simple-LARD-PHTTP", "lard", core.SingleHandoff, false},
		{"WRR-PHTTP", "wrr", core.SingleHandoff, false},
		{"WRR", "wrr", core.SingleHandoff, true},
	}
}

// selectCombos returns the combinations -only names: all of them when it
// is empty, else the one it matches, else an error listing the valid names.
func selectCombos(only string) ([]protoCombo, error) {
	all := protoCombos()
	if only == "" {
		return all, nil
	}
	names := make([]string, len(all))
	for i, c := range all {
		if c.name == only {
			return all[i : i+1], nil
		}
		names[i] = c.name
	}
	return nil, fmt.Errorf("unknown combination %q for -only (valid: %s)", only, strings.Join(names, ", "))
}

func main() {
	var (
		maxNodes = flag.Int("max-nodes", 6, "largest cluster size")
		conns    = flag.Int("connections", 6000, "trace connections per run")
		seed     = flag.Uint64("seed", 1, "workload seed")
		scale    = flag.Float64("time-scale", 10, "divide simulated latencies (results are normalized back)")
		clients  = flag.Int("clients", 0, "concurrent clients (0 = 32 per node)")
		cacheMB  = flag.Int64("cache-mb", cluster.PrototypeCacheBytes>>20, "per-node cache (MB); scale it with -connections so the touched working set stays ~5x one cache")
		only     = flag.String("only", "", "run only the named combination (e.g. BEforward-extLARD-PHTTP)")
		cacheDir = flag.String("trace-cache", "", "trace cache directory: load the benchmark workload from disk, generating and persisting on miss")
		scenFlag = flag.String("scenario", "", "benchmark the prototype for a declarative scenario (builtin name or JSON file): policy, options, mechanism, workload and node axis come from the spec")
	)
	flag.Parse()

	if *scenFlag != "" {
		runScenarioBench(*scenFlag, *scale, *clients)
		return
	}
	combos, err := selectCombos(*only)
	if err != nil {
		fatalf("%v", err)
	}

	tcfg := trace.DefaultSynthConfig()
	tcfg.Seed = *seed
	tcfg.Connections = *conns
	var wl *trace.Workload
	if *cacheDir != "" {
		w, hit, err := trace.LoadOrGenerate(*cacheDir, tcfg)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "trace cache %s: hit=%v\n", *cacheDir, hit)
		wl = w
	} else {
		wl = trace.NewWorkload(trace.NewSynth(tcfg).Generate())
	}
	tr := wl.PHTTP
	fmt.Fprint(os.Stderr, trace.ComputeStats(tr))

	var series []*metrics.Series
	feUtil := &metrics.Series{Name: "FE-util-%(BEforward-extLARD-PHTTP)"}
	for _, combo := range combos {
		s := &metrics.Series{Name: combo.name}
		for n := 1; n <= *maxNodes; n++ {
			thr, util, err := runOne(combo, n, wl, *scale, *clients, *cacheMB<<20)
			if err != nil {
				fatalf("%s n=%d: %v", combo.name, n, err)
			}
			s.Add(float64(n), thr)
			if combo.name == "BEforward-extLARD-PHTTP" {
				feUtil.Add(float64(n), 100*util)
			}
			fmt.Fprintf(os.Stderr, "%-26s n=%d  %8.1f req/s (normalized)  FE %4.1f%%\n",
				combo.name, n, thr, 100*util)
		}
		series = append(series, s)
	}
	fmt.Printf("# Figure 13: prototype throughput (req/s, normalized to modeled hardware) vs nodes\n")
	fmt.Print(metrics.Table("nodes", series...))
	fmt.Printf("\n# Section 8.2: front-end utilization under BEforward-extLARD-PHTTP\n")
	fmt.Print(metrics.Table("nodes", feUtil))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-bench: "+format+"\n", args...)
	os.Exit(1)
}

// runScenarioBench drives the prototype cluster for one declarative
// scenario: the same spec that runs in the simulator (phttp-sim -scenario)
// runs here against real sockets, over the scenario's node axis.
func runScenarioBench(arg string, scale float64, clients int) {
	spec, err := scenario.LoadOrBuiltin(arg)
	if err != nil {
		fatalf("%v", err)
	}
	if spec.Sweep != nil && len(spec.Sweep.Combos) > 0 {
		fatalf("scenario %q sweeps the simulator's combos; the prototype benchmark needs a policy scenario (run this one with `phttp-sim -scenario %s`, or the prototype's Figure 13 combos with `phttp-bench [-only NAME]`)", arg, arg)
	}
	// An explicitly passed -time-scale wins over the scenario's value; the
	// scenario wins over the flag's default.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["time-scale"] || spec.Cluster.TimeScale <= 0 {
		spec.Cluster.TimeScale = scale
	}
	wl, _, err := spec.LoadWorkload()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprint(os.Stderr, trace.ComputeStats(wl.PHTTP))

	nodesAxis := []int{spec.Cluster.Nodes}
	if spec.Sweep != nil && len(spec.Sweep.Nodes) > 0 {
		nodesAxis = spec.Sweep.Nodes
	}
	label := spec.Name
	if label == "" {
		label = spec.Policy.Name
	}
	s := &metrics.Series{Name: label}
	for _, n := range nodesAxis {
		spec.Cluster.Nodes = n
		clCfg, err := spec.ToClusterConfig(wl.PHTTP.Catalog())
		if err != nil {
			fatalf("%v", err)
		}
		cl, err := cluster.Start(clCfg)
		if err != nil {
			fatalf("n=%d: %v", n, err)
		}
		lgCfg, err := spec.ToLoadgenConfig(cl.Addr(), wl)
		if err != nil {
			cl.Close()
			fatalf("%v", err)
		}
		if clients > 0 {
			lgCfg.Concurrency = clients
		} else if lgCfg.Concurrency == 0 {
			lgCfg.Concurrency = 32 * n
		}
		lgCfg.IOTimeout = 2 * time.Minute
		res, err := loadgen.Run(lgCfg)
		util := cl.FE.Utilization()
		cl.Close()
		if err != nil {
			fatalf("n=%d: %v", n, err)
		}
		if res.Errors > 0 {
			fatalf("n=%d: %d request errors", n, res.Errors)
		}
		thr := res.Throughput / clCfg.TimeScale
		s.Add(float64(n), thr)
		fmt.Fprintf(os.Stderr, "%-26s n=%d  %8.1f req/s (normalized)  FE %4.1f%%\n", label, n, thr, 100*util)
	}
	fmt.Printf("# Scenario %s: prototype throughput (req/s, normalized to modeled hardware) vs nodes\n", label)
	fmt.Print(metrics.Table("nodes", s))
}

// runOne starts a cluster, replays the trace, and returns normalized
// throughput (req/s on modeled hardware) and front-end utilization.
func runOne(combo protoCombo, nodes int, wl *trace.Workload, scale float64, clients int, cacheBytes int64) (float64, float64, error) {
	tr := wl.PHTTP
	cfg := cluster.DefaultConfig(nodes, tr.Catalog())
	cfg.Policy = combo.policy
	cfg.Mechanism = combo.mech
	cfg.TimeScale = scale
	cfg.CacheBytes = cacheBytes
	cl, err := cluster.Start(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()

	if clients <= 0 {
		clients = 32 * nodes
	}
	var flat *trace.Trace
	if combo.http10 {
		flat = wl.Flatten() // memoized: one flattening across all grid points
	}
	res, err := loadgen.Run(loadgen.Config{
		Addr:        cl.Addr(),
		Trace:       tr,
		HTTP10:      combo.http10,
		Flat:        flat,
		Concurrency: clients,
		WarmupFrac:  0.2,
		IOTimeout:   2 * time.Minute,
	})
	if err != nil {
		return 0, 0, err
	}
	if res.Errors > 0 {
		return 0, 0, fmt.Errorf("%d request errors", res.Errors)
	}
	return res.Throughput / scale, cl.FE.Utilization(), nil
}
