package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// runSmoke runs every workload of the set briefly and scaled down, untraced
// and traced, with all checks on and nothing gated: it exists so that the
// harness itself keeps working.
func runSmoke(set []workload, opt options) int {
	opt.seconds = 1
	code := 0
	for _, wl := range set {
		for _, traced := range []bool{false, true} {
			opt.trace = traced
			code = max(code, emit(wl.scaled(), opt))
		}
	}
	return code
}

// bounds reads the end-to-end regression bounds from BENCHMARK.json in the
// working directory; without the file the spreads are printed bare.
func bounds() map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil || json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// firstLine returns the first line of a file or command output, or "unknown".
func firstLine(b []byte, err error) string {
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return line
}

// runRepeat runs the workload set n times, each run a fresh process of this
// binary, forwards on odd repetitions and backwards on even ones, and prints
// per workload and metric the median, the quartiles and their distance as a
// share of the median, next to the metric's bound. Repetition i uses seed
// opt.seed+i, as the acceptance procedure does, so the spread includes what
// the seed contributes.
func runRepeat(set []workload, opt options, n int) int {
	self, err := os.Executable()
	if err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	fmt.Printf("env: nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		firstLine(os.ReadFile("/proc/sys/kernel/osrelease")), firstLine(exec.Command("git", "rev-parse", "--short", "HEAD").Output()))
	values := map[string]map[string][]float64{} // workload → metric → one value per repetition
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	code := 0
	for i := 0; i < n; i++ {
		for k := range set {
			wl := set[k]
			if i%2 == 1 {
				wl = set[len(set)-1-k]
			}
			load, _, _ := strings.Cut(firstLine(os.ReadFile("/proc/loadavg")), " ")
			cmd := exec.Command(self, "--workload", wl.name, "--seed", fmt.Sprint(opt.seed+uint64(i)),
				"--seconds", fmt.Sprint(opt.seconds), "--trace", trace, "--out", opt.outDir)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); err != nil || jerr != nil || !res.Correct {
				fmt.Printf("run %d %s seed %d: FAILED (%v)\n%s", i+1, wl.name, opt.seed+uint64(i), err, stderr.String())
				code = 1
				continue
			}
			fmt.Printf("run %d %s seed %d loadavg %s: ok\n", i+1, wl.name, opt.seed+uint64(i), load)
			if values[wl.name] == nil {
				values[wl.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[wl.name][name] = append(values[wl.name][name], m.Value)
			}
		}
	}
	bound := bounds()
	fmt.Printf("\n%-22s %-40s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, wl := range set {
		names := make([]string, 0, len(values[wl.name]))
		for name := range values[wl.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vs := values[wl.name][name]
			if len(vs) < 2 {
				continue
			}
			q1, q3 := quartiles(vs)
			med := median(append([]float64(nil), vs...))
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			note := ""
			if b, ok := bound[name]; ok {
				note = fmt.Sprintf("%6.2f", b)
				if spread > b {
					note += "  SPREAD EXCEEDS BOUND"
				}
			}
			fmt.Printf("%-22s %-40s %14.4f %14.4f %14.4f %8.4f %s\n", wl.name, name, med, q1, q3, spread, note)
		}
	}
	return code
}
