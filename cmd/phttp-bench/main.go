// phttp-bench drives the full prototype cluster (in-process: front-end,
// back-ends and load generator in one process, communicating over real
// sockets with real fd-passing handoff) over a scenario's grid: by
// default the builtin "fig13", which regenerates Figure 13 and the
// Section 8.2 front-end utilization figure. Any node-axis scenario runs,
// policy-driven or a combos sweep whose mechanisms the prototype
// implements, and -set overrides any of its keys:
//
//	phttp-bench                                    # Figure 13, 1-6 nodes
//	phttp-bench -set cluster.timeScale=20          # faster; HTTP/1.0 combos read low (DESIGN §4.5)
//	phttp-bench -set 'sweep.combos=["WRR"]' -set 'sweep.nodes=[2]'
//	phttp-bench -scenario slo-tail                 # a policy scenario on real sockets
//
// Simulated CPU/disk latencies are divided by cluster.timeScale; reported
// throughput is normalized back (multiplied by 1/scale) so the numbers are
// comparable to the paper's 300 MHz-era hardware. Performance of the
// program itself is measured by the benchmark module (benchmark/), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/loadgen"
	"phttp/internal/metrics"
	"phttp/internal/scenario"
	"phttp/internal/trace"
)

func main() {
	resolve := scenario.Flags(flag.CommandLine, "fig13")
	flag.Parse()
	spec, err := resolve()
	if err != nil {
		fatalf("%v", err)
	}
	points, err := spec.PrototypeGrid()
	if err != nil {
		fatalf("%v", err)
	}
	wl := spec.LoadWorkload()
	fmt.Fprint(os.Stderr, trace.ComputeStats(wl.PHTTP))
	// Compile every point before running any, so a point the prototype
	// cannot run fails at once, not after the ones before it.
	cfgs := make([]cluster.Config, len(points))
	for i, p := range points {
		if cfgs[i], err = p.ToClusterConfig(wl.PHTTP.Catalog()); err != nil {
			fatalf("%s: %v", p.Label(), err)
		}
	}

	var thr, util []*metrics.Series
	series := map[string]int{}
	for i, p := range points {
		label, n := p.Label(), p.Cluster.Nodes
		k, ok := series[label]
		if !ok {
			k = len(thr)
			series[label] = k
			thr = append(thr, &metrics.Series{Name: label})
			util = append(util, &metrics.Series{Name: "FE-util-%(" + label + ")"})
		}
		rps, feUtil, err := runPoint(p, cfgs[i], wl)
		if err != nil {
			fatalf("%s n=%d: %v", label, n, err)
		}
		thr[k].Add(float64(n), rps)
		util[k].Add(float64(n), 100*feUtil)
		fmt.Fprintf(os.Stderr, "%-26s n=%d  %8.1f req/s (normalized)  FE %4.1f%%\n", label, n, rps, 100*feUtil)
	}
	fmt.Printf("# Scenario %s: prototype throughput (req/s, normalized to modeled hardware) vs nodes\n", spec.Name)
	fmt.Print(metrics.Table("nodes", thr...))
	fmt.Printf("\n# Section 8.2: front-end utilization\n")
	fmt.Print(metrics.Table("nodes", util...))
}

// runPoint starts the point's cluster, replays the workload through the
// point's load generator, and returns normalized throughput (req/s on
// modeled hardware) and front-end utilization.
func runPoint(p *scenario.Spec, cfg cluster.Config, wl *trace.Workload) (float64, float64, error) {
	cl, err := cluster.Start(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	lg, err := p.ToLoadgenConfig(cl.Addr(), wl)
	if err != nil {
		return 0, 0, err
	}
	if lg.Concurrency == 0 {
		lg.Concurrency = 32 * cfg.Nodes
	}
	lg.IOTimeout = 2 * time.Minute
	res, err := loadgen.Run(lg)
	if err != nil {
		return 0, 0, err
	}
	if res.Errors > 0 {
		return 0, 0, fmt.Errorf("%d request errors", res.Errors)
	}
	return res.Throughput / cfg.TimeScale, cl.FE.Utilization(), nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-bench: "+format+"\n", args...)
	os.Exit(1)
}
