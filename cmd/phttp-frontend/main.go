// phttp-frontend runs the prototype front-end as its own process: it
// accepts client connections, runs the dispatcher (WRR, LARD, LARD/R or
// extended LARD) and hands connections off to the back-ends.
//
//	phttp-frontend -listen 127.0.0.1:8080 -policy extlard -mechanism beforward \
//	               -backend 127.0.0.1:7100,/tmp/phttp/be0.sock \
//	               -backend 127.0.0.1:7101,/tmp/phttp/be1.sock
//
// A declarative scenario can supply the dispatcher configuration (policy,
// options, mechanism, cache model, interner cap); explicitly set flags
// still override it:
//
//	phttp-frontend -scenario slo-tail -backend 127.0.0.1:7100,/tmp/phttp/be0.sock
//
// Several front-end processes can share dispatch state as a scale-out
// tier: each member names the tier size, its own index, the state backend
// (sharded or replicated) and its peers' state addresses:
//
//	phttp-frontend -frontends 3 -fe-id 0 -state replicated \
//	               -peer-listen 127.0.0.1:9100 \
//	               -peers 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102 \
//	               -backend 127.0.0.1:7100,/tmp/phttp/be0.sock
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/policy"
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
		listen   = flag.String("listen", "127.0.0.1:8080", "client listen address")
		polName  = flag.String("policy", "extlard", "dispatch policy: "+strings.Join(dispatch.Names(), ", "))
		mech     = flag.String("mechanism", "beforward", "singlehandoff, beforward or relay")
		cacheMB  = flag.Int64("cache-mb", cluster.PrototypeCacheBytes>>20, "per-node cache estimate for the mapping model (MB)")
		idle     = flag.Duration("idle-timeout", 15*time.Second, "persistent connection idle close interval")
		maxTgts  = flag.Int("max-targets", 0, "cap the dispatcher's target table for long-haul deployments facing an unbounded URL space: targets first seen past the cap are dispatched by load alone and never mapped; 0 means no cap")
		scenFlag = flag.String("scenario", "", "take the dispatcher configuration (policy, options, mechanism, cache model, target cap) from a scenario: builtin name or JSON file; explicitly set flags override it")
		admin    = flag.String("admin", "", "admin listen address for the membership surface (GET /membership, POST /backends/add, POST /backends/remove); empty disables it")
		status   = flag.String("status", "", "ops listen address serving Prometheus text metrics at GET /status (per-request latency histogram, membership states, 503 and re-dispatch counters); empty disables it")
		hbTO     = flag.Duration("heartbeat-timeout", 0, "mark a back-end Suspect after this much control-link silence (0 = membership default)")
		confirm  = flag.Duration("confirm-window", 0, "confirm a Suspect back-end Down after this long (0 = membership default)")
		retryBud = flag.Int("retry-budget", cluster.DefaultRetryBudget, "re-dispatch attempts per in-flight request after its node dies, relay mechanism only (0 = none)")
		fes      = flag.Int("frontends", 1, "scale-out tier size: total number of front-end processes sharing dispatch state (1 = classic single front-end)")
		feID     = flag.Int("fe-id", 0, "this process's index in the tier, 0..frontends-1")
		state    = flag.String("state", "local", "dispatch-state store backend: local, sharded (consistent-hash ownership, state transactions forward to the owner) or replicated (full replication, bounded-staleness sync)")
		peerLn   = flag.String("peer-listen", "", "listen address for peer state links (required when -frontends > 1; port 0 picks a free port)")
		peers    = flag.String("peers", "", "comma-separated peer state addresses, one per tier member in fe-id order (this member's own slot is ignored)")
		syncInt  = flag.Duration("sync-interval", cluster.DefaultSyncInterval, "replicated-state sync interval: the bounded-staleness window between delta exchanges")
	)
	flag.Var(&backends, "backend", "back-end endpoint as ctrlAddr,handoffPath (repeat per node)")
	flag.Parse()
	if len(backends) == 0 {
		fatalf("at least one -backend is required")
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var cfg cluster.FrontEndConfig
	if *scenFlag != "" {
		spec, err := scenario.LoadOrBuiltin(*scenFlag)
		if err != nil {
			fatalf("%v", err)
		}
		cfg, err = spec.ToFrontEndConfig(len(backends))
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		cfg = cluster.FrontEndConfig{
			Nodes:  len(backends),
			Params: policy.DefaultParams(),
		}
		set["policy"], set["mechanism"], set["cache-mb"] = true, true, true
		set["idle-timeout"], set["max-targets"] = true, true
	}
	if set["policy"] {
		cfg.Policy = *polName
		cfg.PolicyOptions = nil // flag policy names carry no options
	}
	if set["mechanism"] {
		m, err := core.ParseMechanism(*mech)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Mechanism = m
	}
	if set["cache-mb"] {
		cfg.CacheBytes = *cacheMB << 20
	}
	if set["idle-timeout"] {
		cfg.IdleTimeout = *idle
	}
	if set["max-targets"] {
		cfg.MaxTargets = *maxTgts
	}
	cfg.ClientListen = *listen
	cfg.HeartbeatTimeout = *hbTO
	cfg.ConfirmWindow = *confirm
	cfg.RetryBudget = *retryBud
	if *fes > 1 || set["state"] {
		mode, err := dstate.ParseMode(*state)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Frontends = *fes
		cfg.FEID = *feID
		cfg.State = mode
		cfg.PeerListen = *peerLn
		cfg.SyncInterval = *syncInt
	}

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
