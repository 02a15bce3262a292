// phttp-backend runs one prototype back-end node as its own process. The
// catalog, cache budget, cost model and time scale come from a scenario
// (default: the builtin "default"; override keys with -set), and the
// catalog is regenerated deterministically from its workload section, so
// every node (and the load generator) agrees on target sizes without
// shipping files around. The node always charges the cost model's CPU
// time.
//
//	phttp-backend -id 0 -ctrl 127.0.0.1:7100 \
//	              -handoff /tmp/phttp/be0.sock -peers 1=/tmp/phttp/be1.sock.peer \
//	              -set cluster.timeScale=50
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
	"phttp/internal/trace"
)

func main() {
	var (
		id        = flag.Int("id", 0, "node ID (0-based)")
		ctrl      = flag.String("ctrl", "127.0.0.1:0", "control listen address")
		handoff   = flag.String("handoff", "", "handoff UNIX socket path (required)")
		peersSpec = flag.String("peers", "", "comma-separated id=path peer sockets (each node's handoff path plus .peer)")
	)
	resolve := scenario.Flags(flag.CommandLine, "default")
	flag.Parse()
	if *handoff == "" {
		fatalf("-handoff is required")
	}
	spec, err := resolve()
	if err != nil {
		fatalf("%v", err)
	}
	catalog := trace.NewSynth(spec.SynthConfig()).Sizes()
	cfg, err := spec.ToClusterConfig(catalog)
	if err != nil {
		fatalf("%v", err)
	}
	bcfg := cfg.Backend(core.NodeID(*id), *handoff)
	bcfg.CtrlListen = *ctrl
	be, err := cluster.NewBackend(bcfg)
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

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-backend: "+format+"\n", args...)
	os.Exit(1)
}
