package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare with.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeMatchesBenchmarkJSON runs every workload scaled down, untraced
// and traced, with all checks on, and requires exactly the metrics
// BENCHMARK.json declares, with their units.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, sw := range spec.Workloads {
		wl, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", sw.Name)
		}
		if wl.why != sw.Why {
			t.Errorf("%s: why differs between BENCHMARK.json and workloads.go", wl.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(wl.scaled(), options{seed: 1, seconds: 0.5, trace: traced, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			for _, p := range res.problems {
				t.Errorf("%s trace=%v: %s", wl.name, traced, p)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", wl.name, traced, res.attempted, res.failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.name, traced, len(res.metrics), len(want))
			}
			got := map[string]metric{}
			for _, m := range res.metrics {
				got[m.name] = m
			}
			for _, w := range want {
				m, ok := got[w.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s is missing", wl.name, traced, w.Name)
				case m.unit != w.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", wl.name, traced, w.Name, m.unit, w.Unit)
				case math.IsNaN(m.value) || math.IsInf(m.value, 0):
					t.Errorf("%s trace=%v: %s = %v", wl.name, traced, w.Name, m.value)
				case !traced && m.value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, w.Name, m.value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, wl.name+".trace.jsonl")); err != nil {
			t.Errorf("%s: traced run left no span file: %v", wl.name, err)
		}
	}
}

// TestCorruptedResponseFailsRun flips one probed body byte in the client and
// requires the command to exit non-zero; the same command without the hook
// exits zero.
func TestCorruptedResponseFailsRun(t *testing.T) {
	args := []string{"--smoke", "--workload", "proto.phttp-local", "--out", t.TempDir()}
	if code := run(args, nil); code != 0 {
		t.Fatalf("clean smoke run exited %d", code)
	}
	if code := run(args, func(probe []byte) { probe[0] ^= 0xff }); code == 0 {
		t.Fatal("run with corrupted responses exited 0")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %v, %v; Python gives 1, 3", q1, q3)
	}
}
