package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"phttp/internal/core"
	"phttp/internal/trace"
)

// The latency-regression gate: virtual-time delays are bit-deterministic
// for a given (workload, config), so per-combo tail quantiles recorded in
// a checked-in baseline are machine-independent regression tests. A
// change that inflates any combo's p99 past the recorded value (plus a
// small tolerance) fails TestLatencyGate.

const latencyBaselinePath = "testdata/latency-baseline.json"

// latencyBaseline pins the per-combo p99 of the gate sweep: the seven
// reference combos at one cluster size on the default synthetic workload
// with the recorded connection count and seed.
type latencyBaseline struct {
	Nodes       int    `json:"nodes"`
	Connections int    `json:"connections"`
	Seed        uint64 `json:"seed"`
	// TolerancePct is the allowed relative p99 increase. Virtual-time
	// results are exactly reproducible, so this only absorbs
	// histogram-bucket granularity if the bucket layout changes; it is not
	// headroom for real regressions.
	TolerancePct float64 `json:"tolerance_pct"`
	// P99Ms maps combo name to its recorded p99 in milliseconds.
	P99Ms map[string]float64 `json:"p99_ms"`
}

func loadLatencyBaseline(t *testing.T) latencyBaseline {
	t.Helper()
	data, err := os.ReadFile(latencyBaselinePath)
	if err != nil {
		t.Fatal(err)
	}
	var b latencyBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("%s: %v", latencyBaselinePath, err)
	}
	return b
}

// withResults returns b's workload and tolerance with the p99s of results
// — the file a deliberate re-baseline would write.
func (b latencyBaseline) withResults(results []Result) latencyBaseline {
	b.P99Ms = make(map[string]float64, len(results))
	for _, r := range results {
		b.P99Ms[r.Combo] = float64(r.Latency.P99) / float64(core.Millisecond)
	}
	return b
}

// check compares results against the baseline and returns one message per
// regression. A combo in the baseline but absent from the run is a
// regression — a deleted combo must be re-baselined deliberately; a combo
// the baseline does not record is not checked.
func (b latencyBaseline) check(results []Result) []string {
	var regressions []string
	seen := make(map[string]bool, len(results))
	for _, r := range results {
		base, ok := b.P99Ms[r.Combo]
		if !ok {
			continue
		}
		seen[r.Combo] = true
		got := float64(r.Latency.P99) / float64(core.Millisecond)
		if allowed := base * (1 + b.TolerancePct/100); got > allowed {
			regressions = append(regressions,
				fmt.Sprintf("%s: p99 %.2fms exceeds baseline %.2fms (+%.0f%% tolerance = %.2fms)",
					r.Combo, got, base, b.TolerancePct, allowed))
		}
	}
	var missing []string
	for combo := range b.P99Ms {
		if !seen[combo] {
			missing = append(missing, combo)
		}
	}
	sort.Strings(missing)
	for _, combo := range missing {
		regressions = append(regressions, combo+": in baseline but absent from the gate sweep")
	}
	return regressions
}

// TestLatencyGate runs the recorded gate sweep and compares every combo's
// p99 with the baseline. On failure it logs this run's values in the
// baseline file's form: re-baselining is pasting that over the file.
func TestLatencyGate(t *testing.T) {
	b := loadLatencyBaseline(t)
	tcfg := trace.DefaultSynthConfig()
	tcfg.Seed = b.Seed
	tcfg.Connections = b.Connections
	tr := trace.NewSynth(tcfg).GenerateParallel(0)
	_, results, err := ClusterSweepParallel(core.Apache, []int{b.Nodes}, Combos(), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	regressions := b.check(results)
	for _, msg := range regressions {
		t.Error(msg)
	}
	if len(regressions) > 0 {
		out, _ := json.MarshalIndent(b.withResults(results), "", "  ")
		t.Logf("this run as %s:\n%s", latencyBaselinePath, out)
	}
}

// gateResults stands in for a gate sweep: one result per combo, each with
// a distinct p99.
func gateResults() []Result {
	results := make([]Result, len(Combos()))
	for i, c := range Combos() {
		results[i] = Result{Combo: c.Name, Latency: LatencySummary{P99: core.Micros(i+1) * 100 * core.Millisecond}}
	}
	return results
}

func gateBaseline(results []Result) latencyBaseline {
	return latencyBaseline{TolerancePct: 5}.withResults(results)
}

// TestLatencyGateSelfConsistent: a baseline recorded from a run must pass
// the same run.
func TestLatencyGateSelfConsistent(t *testing.T) {
	results := gateResults()
	b := gateBaseline(results)
	if len(b.P99Ms) != len(Combos()) {
		t.Fatalf("baseline covers %d combos, want %d", len(b.P99Ms), len(Combos()))
	}
	if regs := b.check(results); len(regs) != 0 {
		t.Errorf("self-check regressions: %v", regs)
	}
}

// TestLatencyGateCatchesInjectedRegression is the deliberate-failure
// test: tightening one combo's recorded p99 below its measured value must
// fail the gate — proving the gate can fail, not just pass.
func TestLatencyGateCatchesInjectedRegression(t *testing.T) {
	results := gateResults()
	b := gateBaseline(results)
	victim := results[0].Combo
	b.P99Ms[victim] *= 0.7 // as if the current run's p99 grew ~43%
	regs := b.check(results)
	if len(regs) != 1 || !strings.Contains(regs[0], victim) {
		t.Errorf("injected regression on %s not caught: %v", victim, regs)
	}
}

// TestLatencyGateCatchesMissingCombo: a combo recorded in the baseline
// but absent from the run must be reported, not silently skipped.
func TestLatencyGateCatchesMissingCombo(t *testing.T) {
	results := gateResults()
	b := gateBaseline(results)
	regs := b.check(results[1:])
	if len(regs) != 1 || !strings.Contains(regs[0], results[0].Combo) {
		t.Errorf("missing combo %s not reported: %v", results[0].Combo, regs)
	}
	// The converse — a new combo with no recorded expectation — is not a
	// failure; it starts gating once it is pasted into the baseline.
	if regs := b.check(append(results, Result{Combo: "new-combo"})); len(regs) != 0 {
		t.Errorf("unrecorded combo should not fail the gate: %v", regs)
	}
}

// TestLatencyGateSaveLoadRoundTrip: the form TestLatencyGate logs on
// failure is the baseline file's own, byte for byte, so pasting it
// re-baselines and changes nothing else.
func TestLatencyGateSaveLoadRoundTrip(t *testing.T) {
	data, err := os.ReadFile(latencyBaselinePath)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(loadLatencyBaseline(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(out)+"\n" != string(data) {
		t.Errorf("re-encoded baseline differs from %s:\n%s", latencyBaselinePath, out)
	}
}

// TestRecordedLatencyBaselineValid: the checked-in baseline records every
// combo with a positive p99, so a new combo cannot go ungated.
func TestRecordedLatencyBaselineValid(t *testing.T) {
	b := loadLatencyBaseline(t)
	if b.Nodes <= 0 || b.Connections <= 0 {
		t.Errorf("baseline workload: nodes=%d connections=%d", b.Nodes, b.Connections)
	}
	for _, c := range Combos() {
		if v := b.P99Ms[c.Name]; v <= 0 {
			t.Errorf("recorded p99 for %s is %v", c.Name, v)
		}
	}
	if len(b.P99Ms) != len(Combos()) {
		t.Errorf("recorded baseline covers %d combos, want %d", len(b.P99Ms), len(Combos()))
	}
}
