// phttp-sim runs the trace-driven cluster simulator. A declarative
// scenario (DESIGN.md §13) defines every run, the paper's simulation
// figures included, and -set overrides any of its keys:
//
//	phttp-sim                         # one run: the builtin "default"
//	phttp-sim -set cluster.nodes=2 -set workload.synth.connections=3000
//	phttp-sim -scenario fig7          # Apache throughput vs cluster size
//	phttp-sim -scenario fig8          # Flash throughput vs cluster size
//	phttp-sim -scenario fig3          # single-node delay/throughput curve
//	phttp-sim -scenario churn-crash   # LARD across cluster sizes, one node crashing
//	phttp-sim -scenario myexp.json    # scenario file
//	phttp-sim -list-scenarios         # builtin scenario names
//	phttp-sim -list                   # the combos sweep.combos takes
//
// A grid prints a tab-separated table, one column per series; a one-point
// scenario prints one result line.
package main

import (
	"flag"
	"fmt"
	"os"

	"phttp/internal/core"
	"phttp/internal/metrics"
	"phttp/internal/scenario"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

func main() {
	var (
		verbose  = flag.Bool("v", false, "print every grid point's result line (hit rate, utilizations) to stderr")
		list     = flag.Bool("list", false, "list the policy/mechanism combinations sweep.combos takes and exit")
		plot     = flag.Bool("plot", false, "append an ASCII rendering of a throughput table")
		workers  = flag.Int("workers", 0, "parallel grid workers (0 = GOMAXPROCS, 1 = serial); output is identical either way")
		scenList = flag.Bool("list-scenarios", false, "list the builtin scenarios and exit")
	)
	resolve := scenario.Flags(flag.CommandLine, "default")
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
	spec, err := resolve()
	if err != nil {
		fatalf("%v", err)
	}
	run(spec, *workers, *plot, *verbose)
}

// run executes a scenario end to end: load the workload, compile the
// grid, run it through sim.RunGrid and print the table for the grid's
// axis, or a one-point grid's result line. Stdout carries that (and an
// SLO verdict) only; the workload statistics and -v result lines go to
// stderr.
func run(spec *scenario.Spec, workers int, plot, verbose bool) {
	wl := spec.LoadWorkload()
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
