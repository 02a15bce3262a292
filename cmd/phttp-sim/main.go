// phttp-sim runs the trace-driven cluster simulator. A declarative
// scenario (DESIGN.md §13) defines every grid, the paper's simulation
// figures included:
//
//	phttp-sim -scenario fig7          # Apache throughput vs cluster size
//	phttp-sim -scenario fig8          # Flash throughput vs cluster size
//	phttp-sim -scenario fig3          # single-node delay/throughput curve
//	phttp-sim -scenario p2c           # open-registry policy across cluster sizes
//	phttp-sim -scenario myexp.json    # scenario file
//	phttp-sim -list-scenarios         # builtin scenario names
//
// Without -scenario it makes one run of one configuration:
//
//	phttp-sim -combo BEforward-extLARD-PHTTP -nodes 4
//
// A grid prints a tab-separated table, one column per series; a single
// run prints one result line.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/metrics"
	"phttp/internal/scenario"
	"phttp/internal/server"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

func main() {
	var (
		combo     = flag.String("combo", "BEforward-extLARD-PHTTP", "policy/mechanism combination for a single run (see -list)")
		nodes     = flag.Int("nodes", 4, "cluster size for a single run")
		srv       = flag.String("server", "apache", "single runs: server model, apache or flash")
		conns     = flag.Int("connections", 0, "single runs: trace connections (0 = generator default)")
		seed      = flag.Uint64("seed", 1, "single runs: workload seed")
		verbose   = flag.Bool("v", false, "with -scenario: print every grid point's result line (hit rate, utilizations) to stderr")
		list      = flag.Bool("list", false, "list the available policy/mechanism combinations and exit")
		plot      = flag.Bool("plot", false, "with -scenario: append an ASCII rendering of a throughput table")
		workers   = flag.Int("workers", 0, "parallel grid workers (0 = GOMAXPROCS, 1 = serial); output is identical either way")
		cacheDir  = flag.String("trace-cache", "", "trace cache directory: load the workload (P-HTTP and flattened forms) from disk, generating and persisting on miss")
		scenFlag  = flag.String("scenario", "", "run a declarative scenario: a builtin name (see -list-scenarios) or a JSON file")
		scenList  = flag.Bool("list-scenarios", false, "list the builtin scenarios and exit")
		fes       = flag.Int("frontends", 1, "single runs: scale-out front-end tier size (1 = the paper's single front-end)")
		feState   = flag.String("state", "local", "single runs: dispatch-state backend for the tier (local, sharded, replicated)")
		staleness = flag.Duration("staleness", 0, "single runs: replicated-state sync interval in simulated time (0 = never sync; requires -state replicated)")
	)
	flag.Parse()

	if *list {
		// The one canonical combo listing: everything ComboByName accepts
		// is printed here, nothing hidden.
		for _, name := range sim.ComboNames() {
			fmt.Println(name)
		}
		return
	}
	if *scenList {
		for _, name := range scenario.BuiltinNames() {
			s, err := scenario.Builtin(name)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("%-12s %s\n", name, s.Doc)
		}
		return
	}
	if *scenFlag != "" {
		runScenario(*scenFlag, *workers, *cacheDir, *plot, *verbose)
		return
	}

	cfg := trace.DefaultSynthConfig()
	cfg.Seed = *seed
	if *conns > 0 {
		cfg.Connections = *conns
	}
	var wl *trace.Workload
	if *cacheDir != "" {
		w, hit, err := trace.LoadOrGenerate(*cacheDir, cfg)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "workload (%d connections, seed %d): cache %s\n",
			cfg.Connections, cfg.Seed, map[bool]string{true: "hit", false: "miss (generated and persisted)"}[hit])
		wl = w
	} else {
		fmt.Fprintf(os.Stderr, "generating workload (%d connections, seed %d)...\n", cfg.Connections, cfg.Seed)
		wl = trace.NewWorkload(trace.NewSynth(cfg).Generate())
	}
	tr := wl.PHTTP
	fmt.Fprint(os.Stderr, trace.ComputeStats(tr))

	var kind core.ServerKind
	switch strings.ToLower(*srv) {
	case "apache":
		kind = core.Apache
	case "flash":
		kind = core.Flash
	default:
		fatalf("unknown -server %q (want apache or flash)", *srv)
	}
	c, err := sim.ComboByName(*combo)
	if err != nil {
		fatalf("%v", err)
	}
	rc := sim.DefaultConfig(*nodes, c)
	rc.Server = server.CostsFor(kind)
	mode, err := dstate.ParseMode(*feState)
	if err != nil {
		fatalf("%v", err)
	}
	rc.Frontends = *fes
	rc.FEState = mode
	rc.Staleness = core.Micros(staleness.Microseconds())
	res, err := sim.Run(rc, tr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(res)
}

// runScenario executes a declarative scenario end to end: resolve, load
// the workload, compile the grid, run it through sim.RunGrid and print the
// table for the grid's axis. Stdout carries the table (and an SLO
// verdict) only; progress and -v result lines go to stderr.
func runScenario(arg string, workers int, cacheDir string, plot, verbose bool) {
	spec, err := scenario.LoadOrBuiltin(arg)
	if err != nil {
		fatalf("%v", err)
	}
	if cacheDir != "" && spec.Workload.TraceCache == "" && spec.Workload.TraceFile == "" {
		spec.Workload.TraceCache = cacheDir
	}

	wl, hit, err := spec.LoadWorkload()
	if err != nil {
		fatalf("%v", err)
	}
	if spec.Workload.TraceCache != "" {
		fmt.Fprintf(os.Stderr, "workload: cache %s\n",
			map[bool]string{true: "hit", false: "miss (generated and persisted)"}[hit])
	}
	fmt.Fprint(os.Stderr, trace.ComputeStats(wl.PHTTP))
	kind, err := spec.ServerKind()
	if err != nil {
		fatalf("%v", err)
	}

	points, err := spec.ToSimGrid()
	if err != nil {
		fatalf("%v", err)
	}
	cfgs := make([]sim.Config, len(points))
	for i, p := range points {
		cfgs[i] = p.Config
	}
	results, err := sim.RunGrid(cfgs, wl, workers)
	if err != nil {
		fatalf("%v", err)
	}
	if verbose {
		for _, r := range results {
			fmt.Fprintln(os.Stderr, r)
		}
	}
	if _, isLoads := spec.LoadsSweep(); isLoads {
		fmt.Printf("# Scenario %s (%s): throughput and delay vs offered load\n", spec.Name, kind)
		fmt.Print(metrics.Table("load(conns)", loadsSeries(points, results)...))
	} else if len(points) == 1 {
		fmt.Println(results[0])
	} else {
		axis := axisLabel(spec.Sweep)
		series := groupSeries(points, results)
		fmt.Printf("# Scenario %s (%s): cluster throughput (req/s) vs %s\n", spec.Name, kind, axis)
		fmt.Print(metrics.Table(axis, series...))
		if plot {
			fmt.Println()
			fmt.Print(metrics.Plot(60, 16, series...))
		}
	}
	gateSLO(spec, points, results)
}

// axisLabel names a throughput grid's x-axis after the sweep field its
// points vary (Validate admits one axis per spec; a combos sweep varies
// nodes).
func axisLabel(sw *scenario.SweepSpec) string {
	switch {
	case len(sw.Frontends) > 0:
		return "frontends"
	case len(sw.StalenessMs) > 0:
		return "staleness(ms)"
	}
	return "nodes"
}

// loadsSeries builds the offered-load table columns: throughput, mean
// delay, and the tail-quantile columns.
func loadsSeries(points []scenario.SimPoint, results []sim.Result) []*metrics.Series {
	thr := &metrics.Series{Name: "throughput(req/s)"}
	delay := &metrics.Series{Name: "delay(ms)"}
	xs := make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.X
		thr.Add(xs[i], results[i].Throughput)
		delay.Add(xs[i], float64(results[i].MeanDelay)/float64(core.Millisecond))
	}
	p50, p95, p99, p999 := sim.TailSeries(xs, results)
	return []*metrics.Series{thr, delay, p50, p95, p99, p999}
}

// gateSLO evaluates an SLO-gated scenario and exits non-zero on failure.
func gateSLO(spec *scenario.Spec, points []scenario.SimPoint, results []sim.Result) {
	if spec.SLO == nil {
		return
	}
	verdicts, pass := spec.CheckSLO(points, results)
	fmt.Printf("# SLO gate: p99 <= %gms, maxViolations = %d\n", spec.SLO.P99Ms, spec.SLO.MaxViolations)
	for _, v := range verdicts {
		fmt.Println(v)
	}
	if !pass {
		fatalf("scenario %s failed its SLO gate", spec.Name)
	}
	fmt.Printf("# SLO gate: PASS (%d points)\n", len(verdicts))
}

// groupSeries folds grid results into one series per label, in first-seen
// order.
func groupSeries(points []scenario.SimPoint, results []sim.Result) []*metrics.Series {
	byLabel := make(map[string]*metrics.Series)
	var series []*metrics.Series
	for i, p := range points {
		s := byLabel[p.Label]
		if s == nil {
			s = &metrics.Series{Name: p.Label}
			byLabel[p.Label] = s
			series = append(series, s)
		}
		s.Add(p.X, results[i].Throughput)
	}
	return series
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-sim: "+format+"\n", args...)
	os.Exit(1)
}
