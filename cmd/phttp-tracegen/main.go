// phttp-tracegen generates the synthetic Rice-like workload: a Common Log
// Format server log (the form real traces arrive in) or summary statistics
// of the reconstructed P-HTTP trace. A synthetic trace is a function of
// its config: every tool regenerates it from the same seed and sizes (or
// the same scenario), so there is no trace file to write or replay.
//
//	phttp-tracegen -connections 60000 > access.log
//	phttp-tracegen -stats
//	phttp-tracegen -scenario slo-tail -stats   # a scenario's workload
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
		conns    = flag.Int("connections", 0, "connections to generate (0 = default)")
		seed     = flag.Uint64("seed", 1, "generator seed")
		stats    = flag.Bool("stats", false, "print trace statistics instead of the log")
		workers  = flag.Int("gen-workers", 0, "generation workers (0 = GOMAXPROCS, 1 = serial); the trace is identical either way")
		scenFlag = flag.String("scenario", "", "generate the workload a scenario describes (builtin name or JSON file); -seed/-connections override its synth section")
	)
	flag.Parse()

	cfg := trace.DefaultSynthConfig()
	if *scenFlag != "" {
		spec, err := scenario.LoadOrBuiltin(*scenFlag)
		if err != nil {
			fatalf("%v", err)
		}
		cfg = spec.SynthConfig()
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *scenFlag == "" || set["seed"] {
		cfg.Seed = *seed
	}
	if *conns > 0 {
		cfg.Connections = *conns
	}

	synth := trace.NewSynth(cfg)
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
