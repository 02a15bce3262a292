// phttp-tracegen prints the Section 6 statistics of a synthetic Rice-like
// workload: connections, requests, working set, requests per connection
// and per batch, and the memory that covers a share of the requests. A
// synthetic trace is a function of its config — a scenario's workload
// section (default: the builtin "default"; override keys with -set) — so
// every tool regenerates it from the same seed and sizes, and there is no
// trace file to write or replay.
//
//	phttp-tracegen
//	phttp-tracegen -set workload.synth.connections=300
//	phttp-tracegen -scenario slo-tail
package main

import (
	"flag"
	"fmt"
	"os"

	"phttp/internal/scenario"
	"phttp/internal/trace"
)

func main() {
	workers := flag.Int("gen-workers", 0, "generation workers (0 = GOMAXPROCS, 1 = serial); the trace is identical either way")
	resolve := scenario.Flags(flag.CommandLine, "default")
	flag.Parse()

	spec, err := resolve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "phttp-tracegen: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(trace.ComputeStats(trace.NewSynth(spec.SynthConfig()).GenerateParallel(*workers)))
}
