// Command benchmark measures this repository's two executable worlds — the
// networked prototype cluster and the trace-driven simulator — end to end
// and layer by layer, on the four workloads of workloads.go. BENCHMARK.json
// at the repository root names the command, the workloads and the metrics;
// README.md in this directory says why each exists.
//
//	bash benchmark/run.sh --workload proto.phttp-local --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Everything else (counts, diagnostics, tables) goes to
// standard error. The exit code is non-zero if any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one named number with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is the outcome of one run of one workload.
type result struct {
	workload  string
	attempted int64
	failed    int64
	metrics   []metric
	problems  []string // failed correctness checks; empty means correct
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// writeJSON prints the result line the benchmark contract asks for.
func (r result) writeJSON(f *os.File) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// options are the command-line settings shared by every mode.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string // where the traced run writes its span files
	// tamper is the client's test-only corruption hook (see clientConfig).
	tamper func([]byte)
}

// runWorkload runs one workload once: the end-to-end run with tracing off,
// or the separate traced run that yields the per-layer metrics.
func runWorkload(wl workload, opt options) (result, error) {
	d := time.Duration(opt.seconds * float64(time.Second))
	switch {
	case opt.trace && wl.sim:
		return traceSim(wl, opt, d)
	case opt.trace:
		return traceProto(wl, opt, d)
	case wl.sim:
		return measureSim(wl, opt.seed, d)
	default:
		return measureProto(wl, opt, d)
	}
}

func main() {
	os.Exit(run(os.Args[1:], nil))
}

// run is main with its inputs as parameters: the command line, and the
// client's corruption hook, which only tests set.
func run(args []string, tamper func([]byte)) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all four, one result line each)")
		seed    = fs.Uint64("seed", 1, "seed of the generated inputs; pick another for a held-out run")
		seconds = fs.Float64("seconds", 20, "length of the measured window")
		trace   = fs.Int("trace", 0, "1 = traced run (per-layer metrics, spans under --out), 0 = end-to-end metrics")
		repeat  = fs.Int("repeat", 0, "run the workload set N times in alternating order, seed+i on repetition i, and print median, quartiles and spread per metric")
		outDir  = fs.String("out", "benchmark/out", "directory for the traced run's span files")
		smoke   = fs.Bool("smoke", false, "a second per workload at a tenth of the size, untraced and traced, all checks on")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if err := useLocalTemp(); err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	set := workloads
	if *name != "" {
		wl, ok := workloadByName(*name)
		if !ok {
			logf("benchmark: unknown workload %q", *name)
			return 2
		}
		set = []workload{wl}
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, tamper: tamper}
	switch {
	case *smoke:
		return runSmoke(set, opt)
	case *repeat > 0:
		return runRepeat(set, opt, *repeat)
	}
	code := 0
	for _, wl := range set {
		code = max(code, emit(wl, opt))
	}
	return code
}

// emit runs one workload and prints its result: the table for people on
// standard error, the JSON line on standard output. It returns the exit
// code the run earns.
func emit(wl workload, opt options) int {
	r, err := runWorkload(wl, opt)
	if err != nil {
		logf("benchmark: %s: %v", wl.name, err)
		return 1
	}
	for _, m := range r.metrics {
		logf("%-22s %-40s %14.4f %s", r.workload, m.name, m.value, m.unit)
	}
	for _, p := range r.problems {
		logf("%s: INCORRECT: %s", r.workload, p)
	}
	if err := r.writeJSON(os.Stdout); err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

// useLocalTemp points TMPDIR at a directory under the working directory
// (the checkout), so that the handoff sockets cluster.Start creates in the
// temporary directory stay inside it. The path is relative on purpose: a
// UNIX socket path is limited to about a hundred bytes and a checkout may
// live anywhere.
func useLocalTemp() error {
	const dir = ".bench_build/tmp"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.Setenv("TMPDIR", dir)
}
