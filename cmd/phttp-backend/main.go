// phttp-backend runs one prototype back-end node as its own process. The
// catalog is regenerated deterministically from the workload seed (or from
// a scenario's workload section, with -scenario), so every node (and the
// load generator) agrees on target sizes without shipping files around.
//
//	phttp-backend -id 0 -ctrl 127.0.0.1:7100 \
//	              -handoff /tmp/phttp/be0.sock -peers 1=/tmp/phttp/be1.sock.peer
//
// Lateral fetches arrive on a UNIX socket beside the handoff socket (its
// path plus ".peer", printed at start-up as peer=); -peers names the other
// nodes' peer sockets. Handoff uses SCM_RIGHTS file-descriptor passing, so
// front-end and back-ends must share a kernel (see DESIGN.md §4.2); use the
// relay mechanism for cross-machine front-end experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/scenario"
	"phttp/internal/server"
	"phttp/internal/trace"
)

func main() {
	var (
		id        = flag.Int("id", 0, "node ID (0-based)")
		ctrl      = flag.String("ctrl", "127.0.0.1:0", "control listen address")
		handoff   = flag.String("handoff", "", "handoff UNIX socket path (required)")
		peersSpec = flag.String("peers", "", "comma-separated id=path peer sockets (each node's handoff path plus .peer)")
		cacheMB   = flag.Int64("cache-mb", cluster.PrototypeCacheBytes>>20, "file cache budget (MB)")
		seed      = flag.Uint64("seed", 1, "workload seed (must match the load generator)")
		scale     = flag.Float64("time-scale", 1, "divide simulated CPU/disk latencies")
		simCPU    = flag.Bool("sim-cpu", true, "simulate Apache CPU costs")
		scenFlag  = flag.String("scenario", "", "take catalog (workload), cache budget, cost model and time scale from a scenario (builtin name or JSON file); explicitly set flags override it")
	)
	flag.Parse()
	if *handoff == "" {
		fatalf("-handoff is required")
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	cacheBytes := *cacheMB << 20
	costs := server.ApacheCosts()
	timeScale := *scale
	var catalog map[core.Target]int64
	if *scenFlag != "" {
		spec, err := scenario.LoadOrBuiltin(*scenFlag)
		if err != nil {
			fatalf("%v", err)
		}
		catalogCfg := spec.SynthConfig()
		if set["seed"] {
			catalogCfg.Seed = *seed
		}
		catalog = trace.NewSynth(catalogCfg).Sizes()
		kind, err := spec.ServerKind()
		if err != nil {
			fatalf("%v", err)
		}
		costs = server.CostsFor(kind)
		if !set["cache-mb"] && spec.Cluster.CacheMB > 0 {
			cacheBytes = spec.Cluster.CacheMB << 20
		}
		if !set["time-scale"] && spec.Cluster.TimeScale > 0 {
			timeScale = spec.Cluster.TimeScale
		}
	} else {
		catalog = trace.NewSynth(synthCfg(*seed)).Sizes()
	}
	be, err := cluster.NewBackend(cluster.BackendConfig{
		ID:            core.NodeID(*id),
		Catalog:       catalog,
		CacheBytes:    cacheBytes,
		Disk:          server.DefaultDisk(),
		Costs:         costs,
		SimulateCPU:   *simCPU,
		TimeScale:     timeScale,
		HandoffSocket: *handoff,
		CtrlListen:    *ctrl,
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer be.Close()

	if *peersSpec != "" {
		peers := make(map[core.NodeID]string)
		for _, kv := range strings.Split(*peersSpec, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				fatalf("bad -peers entry %q (want id=path)", kv)
			}
			pid, err := strconv.Atoi(k)
			if err != nil {
				fatalf("bad peer id %q", k)
			}
			peers[core.NodeID(pid)] = v
		}
		be.SetPeers(peers)
	}

	fmt.Printf("backend %d up: ctrl=%s peer=%s handoff=%s targets=%d\n",
		*id, be.CtrlAddr(), be.PeerAddr(), be.HandoffPath(), len(catalog))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("backend %d: served %d responses, hit rate %.1f%%\n",
		*id, be.Served(), 100*be.Store().HitRate())
}

func synthCfg(seed uint64) trace.SynthConfig {
	cfg := trace.DefaultSynthConfig()
	cfg.Seed = seed
	return cfg
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-backend: "+format+"\n", args...)
	os.Exit(1)
}
