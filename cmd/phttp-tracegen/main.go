// phttp-tracegen generates the synthetic Rice-like workload: a Common Log
// Format server log (the form real traces arrive in), summary statistics
// of the reconstructed P-HTTP trace, or the versioned binary trace format
// that a scenario's workload.traceFile replays.
//
//	phttp-tracegen -connections 60000 > access.log
//	phttp-tracegen -stats
//	phttp-tracegen -out trace.bin              # write the binary format
//	phttp-tracegen -in trace.bin               # inspect a binary trace (stats)
//	phttp-tracegen -in a.bin -out b.bin        # round-trip (re-encode; add -stats to also print)
//	phttp-tracegen -scenario p2c -out p2c.bin  # write a scenario's workload
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
		out      = flag.String("out", "", "write the trace in the binary format to this file")
		in       = flag.String("in", "", "read a binary trace from this file instead of generating")
		workers  = flag.Int("gen-workers", 0, "generation workers (0 = GOMAXPROCS, 1 = serial); the trace is identical either way")
		block    = flag.Int("block-size", 0, "connections per generation block (0 = default); part of the deterministic format")
		scenFlag = flag.String("scenario", "", "generate the workload a scenario describes (builtin name or JSON file), or read its traceFile; -seed/-connections override its synth section")
	)
	flag.Parse()

	if *scenFlag != "" {
		spec, err := scenario.LoadOrBuiltin(*scenFlag)
		if err != nil {
			fatalf("%v", err)
		}
		scenarioSpec = spec
		// A trace-file scenario reads its file exactly as -in does, so
		// -out keeps the config hash the file records.
		if spec.Workload.TraceFile != "" && *in == "" {
			if set := setFlags(); set["seed"] || set["connections"] || set["block-size"] {
				fatalf("-seed/-connections/-block-size do not apply to a trace-file workload")
			}
			*in = spec.Workload.TraceFile
		}
	}

	var tr *trace.Trace
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatalf("%v", err)
		}
		var hash uint64
		tr, hash, err = trace.ReadBinary(f)
		f.Close()
		if err != nil {
			fatalf("read %s: %v", *in, err)
		}
		fmt.Fprintf(os.Stderr, "phttp-tracegen: read %s (config hash %016x, %d connections)\n",
			*in, hash, len(tr.Conns))
		if *out != "" {
			writeBinaryFile(*out, tr, hash)
		}
		// Plain -in is an inspection: print stats. With -out, print them
		// only when asked.
		if *stats || *out == "" {
			fmt.Print(trace.ComputeStats(tr))
		}
		return

	default:
		cfg := synthConfig(*seed, *conns, *block)
		synth := trace.NewSynth(cfg)
		if *out != "" {
			tr = synth.GenerateParallel(*workers)
			writeBinaryFile(*out, tr, trace.ConfigHash(cfg))
			if *stats {
				fmt.Print(trace.ComputeStats(tr))
			}
			return
		}
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
}

// scenarioSpec resolves the -scenario flag once at startup (nil without it).
var scenarioSpec *scenario.Spec

func synthConfig(seed uint64, conns, block int) trace.SynthConfig {
	cfg := trace.DefaultSynthConfig()
	if scenarioSpec != nil {
		cfg = scenarioSpec.SynthConfig()
	}
	if scenarioSpec == nil || setFlags()["seed"] {
		cfg.Seed = seed
	}
	if conns > 0 {
		cfg.Connections = conns
	}
	if block > 0 {
		cfg.BlockSize = block
	}
	return cfg
}

// setFlags reports which flags the command line set explicitly.
func setFlags() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

func writeBinaryFile(path string, tr *trace.Trace, hash uint64) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	n, err := trace.WriteBinary(f, tr, hash)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatalf("write %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "phttp-tracegen: wrote %s (%d bytes)\n", path, n)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-tracegen: "+format+"\n", args...)
	os.Exit(1)
}
