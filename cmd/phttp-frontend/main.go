// phttp-frontend runs the prototype front-end as its own process: it
// accepts client connections, runs the dispatcher (WRR, LARD, LARD/R or
// extended LARD) and hands connections off to the back-ends. The run's
// shape — policy and options, mechanism, cache model, interner cap, retry
// budget, front-end tier — comes from a scenario (default: the builtin
// "default", extended LARD with back-end forwarding), each key overridable
// with -set; the flags say only where this process and its peers live:
//
//	phttp-frontend -listen 127.0.0.1:8080 \
//	               -backend 127.0.0.1:7100,/tmp/phttp/be0.sock \
//	               -backend 127.0.0.1:7101,/tmp/phttp/be1.sock
//	phttp-frontend -set policy.name=lard -set mechanism=relay -backend …
//	phttp-frontend -scenario slo-tail -backend 127.0.0.1:7100,/tmp/phttp/be0.sock
//
// Several front-end processes can share dispatch state as a scale-out
// tier: the scenario names the tier size, the state backend (sharded or
// replicated) and the replicas' sync interval (cluster.stalenessMs, wall
// clock here); each member names its own index and its peers' state
// addresses:
//
//	phttp-frontend -scenario tier.json -fe-id 0 \
//	               -peer-listen 127.0.0.1:9100 \
//	               -peers 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102 \
//	               -backend 127.0.0.1:7100,/tmp/phttp/be0.sock
//
// Failure detection runs at the membership defaults (1 s of silence, then
// 1 s Suspect) and idle persistent connections close after 15 s.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"phttp/internal/cluster"
	"phttp/internal/scenario"
)

// backendFlags collects repeated -backend flags.
type backendFlags []cluster.BackendEndpoints

func (b *backendFlags) String() string { return fmt.Sprint(*b) }

func (b *backendFlags) Set(v string) error {
	ctrl, handoff, ok := strings.Cut(v, ",")
	if !ok {
		return fmt.Errorf("want ctrlAddr,handoffPath, got %q", v)
	}
	*b = append(*b, cluster.BackendEndpoints{Ctrl: ctrl, Handoff: handoff})
	return nil
}

func main() {
	var backends backendFlags
	var (
		listen = flag.String("listen", "127.0.0.1:8080", "client listen address")
		admin  = flag.String("admin", "", "admin listen address for the membership surface (GET /membership, POST /backends/add, POST /backends/remove); empty disables it")
		status = flag.String("status", "", "ops listen address serving Prometheus text metrics at GET /status (per-request latency histogram, membership states, 503 and re-dispatch counters); empty disables it")
		feID   = flag.Int("fe-id", 0, "this process's index in the tier, 0..cluster.frontends-1")
		peerLn = flag.String("peer-listen", "", "listen address for peer state links (required when cluster.frontends > 1; port 0 picks a free port)")
		peers  = flag.String("peers", "", "comma-separated peer state addresses, one per tier member in fe-id order (this member's own slot is ignored)")
	)
	flag.Var(&backends, "backend", "back-end endpoint as ctrlAddr,handoffPath (repeat per node)")
	resolve := scenario.Flags(flag.CommandLine, "default")
	flag.Parse()
	if len(backends) == 0 {
		fatalf("at least one -backend is required")
	}
	spec, err := resolve()
	if err != nil {
		fatalf("%v", err)
	}
	cfg, err := spec.ToFrontEndConfig(len(backends), *feID)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.ClientListen = *listen
	cfg.PeerListen = *peerLn

	fe, err := cluster.NewFrontEnd(cfg, backends)
	if err != nil {
		fatalf("%v", err)
	}
	defer fe.Close()
	if cfg.Frontends > 1 {
		addrs := make([]string, cfg.Frontends)
		for i, a := range strings.Split(*peers, ",") {
			if i >= len(addrs) {
				fatalf("-peers lists %d addresses for a tier of %d", i+1, cfg.Frontends)
			}
			addrs[i] = strings.TrimSpace(a)
		}
		addrs[cfg.FEID] = "" // never dial ourselves
		if err := fe.ConnectPeers(addrs); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("frontend tier: fe=%d/%d state=%s peer-listen=%s\n",
			cfg.FEID, cfg.Frontends, cfg.State, fe.PeerAddr())
	}
	fmt.Printf("frontend up: clients=%s policy=%s mechanism=%s nodes=%d\n",
		fe.Addr(), fe.PolicyName(), cfg.Mechanism, len(backends))
	if *admin != "" {
		ln, err := startAdmin(*admin, fe)
		if err != nil {
			fatalf("%v", err)
		}
		defer ln.Close()
		fmt.Printf("frontend admin: %s\n", ln.Addr())
	}
	if *status != "" {
		ln, err := startStatus(*status, fe)
		if err != nil {
			fatalf("%v", err)
		}
		defer ln.Close()
		fmt.Printf("frontend status: http://%s/status\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("frontend: %d connections, %d requests, utilization %.1f%%\n",
		fe.Connections(), fe.Requests(), 100*fe.Utilization())
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-frontend: "+format+"\n", args...)
	os.Exit(1)
}
