// phttp-loadgen replays the synthetic trace against a running prototype
// front-end and reports throughput, the prototype-side analogue of the
// paper's client software ("an event-driven program that simulates multiple
// HTTP clients... as fast as the server cluster can handle"). The trace,
// the client count, the warmup and the HTTP flavor come from a scenario
// (default: the builtin "default"; override keys with -set), and the trace
// is regenerated from its workload section exactly as the back-ends
// regenerate their catalog. Every response's size and content is checked.
//
//	phttp-loadgen -addr 127.0.0.1:8080 -set cluster.clients=64
//	phttp-loadgen -addr 127.0.0.1:8080 -set workload.http10=true
//	phttp-loadgen -addr 127.0.0.1:8080 -scenario slo-tail
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"phttp/internal/loadgen"
	"phttp/internal/scenario"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "front-end address")
	resolve := scenario.Flags(flag.CommandLine, "default")
	flag.Parse()

	spec, err := resolve()
	if err != nil {
		fatalf("%v", err)
	}
	cfg, err := spec.ToLoadgenConfig(*addr, spec.LoadWorkload())
	if err != nil {
		fatalf("%v", err)
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
