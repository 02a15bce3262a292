// phttp-analytic evaluates the Section 5 analysis: cluster bandwidth under
// the multiple handoff mechanism versus back-end request forwarding as a
// function of mean response size, and the crossover point between them
// (Figures 5 and 6). The server model and cluster size come from a
// scenario (default: the builtin "default", Apache on 4 nodes; override
// keys with -set).
//
//	phttp-analytic
//	phttp-analytic -set server.model=flash -max-kb 100
package main

import (
	"flag"
	"fmt"
	"os"

	"phttp/internal/analytic"
	"phttp/internal/core"
	"phttp/internal/metrics"
	"phttp/internal/scenario"
)

func main() {
	var (
		maxKB = flag.Int("max-kb", 100, "largest mean file size (KB)")
		plot  = flag.Bool("plot", false, "append an ASCII rendering of the figure")
	)
	resolve := scenario.Flags(flag.CommandLine, "default")
	flag.Parse()

	spec, err := resolve()
	if err != nil {
		fatalf("%v", err)
	}
	kind, err := spec.ServerKind()
	if err != nil {
		fatalf("%v", err)
	}
	cfg := analytic.DefaultConfig(kind)
	if spec.Cluster.Nodes > 0 {
		cfg.Nodes = spec.Cluster.Nodes
	}

	figure := 5
	if kind == core.Flash {
		figure = 6
	}
	multi, forward := cfg.Sweep(*maxKB)
	fmt.Printf("# Figure %d (%s): bandwidth (Mb/s) vs average file size (KB), %d nodes\n",
		figure, kind, cfg.Nodes)
	fmt.Print(metrics.Table("KB", multi, forward))
	if *plot {
		fmt.Println()
		fmt.Print(metrics.Plot(60, 16, multi, forward))
	}
	cross := cfg.Crossover(int64(*maxKB) << 10)
	fmt.Printf("# crossover (multiple handoff overtakes BE forwarding): %.1f KB\n",
		float64(cross)/1024)

	// Per-request delay quantiles under the heavy-tailed size model: the
	// bandwidth figures above work at the mean size, but the tail of the
	// size distribution decides the tail of the delay — and the crossover
	// splits the quantiles between the mechanisms (forwarding wins the
	// median, handoff the p99 and beyond).
	dist := analytic.DefaultSizeDist()
	multiQ, forwardQ := cfg.DelayQuantiles(dist)
	fmt.Printf("# per-request delay (ms) under bounded-Pareto sizes (min %d B, max %d KB, alpha %.1f, mean %.1f KB)\n",
		dist.Min, dist.Max>>10, dist.Alpha, dist.Mean()/1024)
	fmt.Printf("# %-22s %8s %8s %8s %8s %8s %8s\n",
		"mechanism", "mean", "p50", "p95", "p99", "p999", "max")
	for _, row := range []struct {
		name string
		q    analytic.DelayQuantiles
	}{
		{kind.String() + "-multiHandoff", multiQ},
		{kind.String() + "-BEforward", forwardQ},
	} {
		fmt.Printf("  %-22s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n", row.name,
			row.q.MeanUS/1e3, row.q.P50US/1e3, row.q.P95US/1e3,
			row.q.P99US/1e3, row.q.P999US/1e3, row.q.MaxUS/1e3)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-analytic: "+format+"\n", args...)
	os.Exit(1)
}
