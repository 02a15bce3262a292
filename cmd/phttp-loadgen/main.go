// phttp-loadgen replays the synthetic trace against a running prototype
// front-end and reports throughput, the prototype-side analogue of the
// paper's client software ("an event-driven program that simulates multiple
// HTTP clients... as fast as the server cluster can handle"). The trace
// is regenerated from -seed/-connections, or from a scenario's
// workload.synth, exactly as the back-ends regenerate their catalog.
//
//	phttp-loadgen -addr 127.0.0.1:8080 -clients 64
//	phttp-loadgen -addr 127.0.0.1:8080 -http10
//	phttp-loadgen -addr 127.0.0.1:8080 -scenario slo-tail   # workload + client shape from a scenario
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"phttp/internal/loadgen"
	"phttp/internal/scenario"
	"phttp/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "front-end address")
		clients  = flag.Int("clients", 64, "concurrent simulated clients")
		http10   = flag.Bool("http10", false, "speak HTTP/1.0 (one request per connection)")
		conns    = flag.Int("connections", 10000, "trace connections to replay")
		seed     = flag.Uint64("seed", 1, "workload seed (must match the back-ends)")
		warmup   = flag.Float64("warmup", 0.2, "fraction of connections excluded from measurement")
		verify   = flag.Bool("verify", true, "verify response sizes and content")
		scenFlag = flag.String("scenario", "", "take workload, client concurrency, warmup and HTTP flavor from a scenario (builtin name or JSON file); -addr and explicitly set flags still apply")
	)
	flag.Parse()

	if *scenFlag != "" {
		runScenario(scenarioArgs{
			arg: *scenFlag, addr: *addr, clients: *clients, verify: *verify,
			http10: *http10, warmup: *warmup, seed: *seed, conns: *conns,
		})
		return
	}

	cfg := trace.DefaultSynthConfig()
	cfg.Seed = *seed
	cfg.Connections = *conns
	tr := trace.NewSynth(cfg).Generate()

	start := time.Now()
	res, err := loadgen.Run(loadgen.Config{
		Addr:        *addr,
		Trace:       tr,
		HTTP10:      *http10,
		Concurrency: *clients,
		WarmupFrac:  *warmup,
		Verify:      *verify,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%v (wall %v)\n", res, time.Since(start).Round(time.Millisecond))
}

// scenarioArgs carries the flag values runScenario may need to overlay on
// the spec.
type scenarioArgs struct {
	arg, addr      string
	clients, conns int
	seed           uint64
	warmup         float64
	verify, http10 bool
}

// runScenario compiles the load-generation half of a scenario and replays
// its workload against addr. Explicitly set flags win over the scenario's
// values — both the client-shape flags (-clients, -verify, -http10,
// -warmup) and the workload flags (-seed, -connections), which are
// folded into the spec's synth section before the workload is generated.
func runScenario(a scenarioArgs) {
	spec, err := scenario.LoadOrBuiltin(a.arg)
	if err != nil {
		fatalf("%v", err)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["seed"] || set["connections"] {
		if spec.Workload.Synth == nil {
			spec.Workload.Synth = &scenario.SynthSpec{}
		}
		if set["seed"] {
			spec.Workload.Synth.Seed = a.seed
		}
		if set["connections"] {
			spec.Workload.Synth.Connections = a.conns
		}
	}
	cfg, err := spec.ToLoadgenConfig(a.addr, spec.LoadWorkload())
	if err != nil {
		fatalf("%v", err)
	}
	if set["clients"] {
		cfg.Concurrency = a.clients
	}
	if set["verify"] {
		cfg.Verify = a.verify
	}
	if set["http10"] {
		cfg.HTTP10 = a.http10
	}
	if set["warmup"] {
		cfg.WarmupFrac = a.warmup
	}
	start := time.Now()
	res, err := loadgen.Run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%v (wall %v)\n", res, time.Since(start).Round(time.Millisecond))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-loadgen: "+format+"\n", args...)
	os.Exit(1)
}
