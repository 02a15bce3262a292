// phttp-tracegen generates the synthetic Rice-like workload: a Common Log
// Format server log (the form real traces arrive in) or summary statistics
// of the reconstructed P-HTTP trace. A synthetic trace is a function of
// its config — a scenario's workload section (default: the builtin
// "default"; override keys with -set) — so every tool regenerates it from
// the same seed and sizes, and there is no trace file to write or replay.
//
//	phttp-tracegen -set workload.synth.connections=60000 > access.log
//	phttp-tracegen -stats
//	phttp-tracegen -scenario slo-tail -stats
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"phttp/internal/scenario"
	"phttp/internal/trace"
)

func main() {
	var (
		stats   = flag.Bool("stats", false, "print trace statistics instead of the log")
		workers = flag.Int("gen-workers", 0, "generation workers (0 = GOMAXPROCS, 1 = serial); the trace is identical either way")
	)
	resolve := scenario.Flags(flag.CommandLine, "default")
	flag.Parse()

	spec, err := resolve()
	if err != nil {
		fatalf("%v", err)
	}
	synth := trace.NewSynth(spec.SynthConfig())
	if *stats {
		fmt.Print(trace.ComputeStats(synth.GenerateParallel(*workers)))
		return
	}
	entries := synth.GenerateEntries()
	w := bufio.NewWriterSize(os.Stdout, 1<<20)
	if err := trace.WriteCLF(w, entries); err != nil {
		fatalf("%v", err)
	}
	if err := w.Flush(); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-tracegen: "+format+"\n", args...)
	os.Exit(1)
}
