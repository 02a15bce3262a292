package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"phttp/internal/scenario"
)

// simBin is the phttp-sim binary every test drives, built once.
var simBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "phttp-sim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simBin = filepath.Join(dir, "phttp-sim")
	code := 1
	if out, err := exec.Command("go", "build", "-o", simBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// runSim runs the binary and returns its stdout and stderr, failing the
// test on a non-zero exit.
func runSim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(simBin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("phttp-sim %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String(), errOut.String()
}

// writeSpec stores a scenario spec in a temp file and returns its path.
func writeSpec(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// builtinCopy writes the named builtin scenario to a temp file with its
// synthetic workload cut to conns connections and its slo block dropped
// (the SLO objectives hold on the full workload; `make slo` gates them).
func builtinCopy(t *testing.T, name string, conns int) string {
	t.Helper()
	s, err := scenario.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload.Synth == nil {
		s.Workload.Synth = &scenario.SynthSpec{}
	}
	s.Workload.Synth.Connections = conns
	s.SLO = nil
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return writeSpec(t, data)
}

func TestHelpSmoke(t *testing.T) {
	if out, err := exec.Command(simBin, "-h").CombinedOutput(); err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
}

func TestListSmoke(t *testing.T) {
	out, _ := runSim(t, "-list")
	if !strings.Contains(out, "BEforward-extLARD-PHTTP") {
		t.Errorf("-list missing the paper's headline combo:\n%s", out)
	}
	// The listing is canonical: the extension combos ComboByName accepts
	// must be listed too, not hidden (they used to be).
	for _, name := range []string{"relayFE-extLARD-PHTTP", "simple-LARDR", "simple-LARDR-PHTTP"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list missing extension combo %s:\n%s", name, out)
		}
	}
}

func TestUnknownComboErrorListsNames(t *testing.T) {
	out, err := exec.Command(simBin, "-scenario", "fig7", "-set", `sweep.combos=["WRR-TELNET"]`).CombinedOutput()
	if err == nil {
		t.Fatal("unknown combo accepted")
	}
	for _, name := range []string{"BEforward-extLARD-PHTTP", "simple-LARDR"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("unknown-combo error does not list %s:\n%s", name, out)
		}
	}
}

// A tier no world runs fails before any work: the error names the key, and
// no workload was generated (its statistics are the first thing a run
// prints).
func TestBadTierFailsBeforeWorkload(t *testing.T) {
	out, err := exec.Command(simBin, "-set", "cluster.frontends=4", "-set", "cluster.state=sharded").CombinedOutput()
	if err == nil {
		t.Fatal("a sharded tier under back-end forwarding ran")
	}
	if !strings.Contains(string(out), "cluster.frontends 4 with cluster.state") {
		t.Errorf("the error does not name the key:\n%s", out)
	}
	if strings.Contains(string(out), "trace:") {
		t.Errorf("a workload was generated before the error:\n%s", out)
	}
}

// TestDefaultIsOneRun: with no -scenario the binary makes the builtin
// default's one run, and -set reshapes it: BEforward-extLARD-PHTTP on 2
// nodes over 3 000 connections prints this line.
func TestDefaultIsOneRun(t *testing.T) {
	out, _ := runSim(t, "-set", "cluster.nodes=2", "-set", "workload.synth.connections=3000")
	want := "BEforward-extLARD-PHTTP      n=2     465.8 req/s  hit= 67.1%  cpu= 25.7%  disk= 98.3%  fe=  0.5%  p99=843.8ms p999=897.0ms\n"
	if out != want {
		t.Errorf("got\n%swant\n%s", out, want)
	}
}

func TestListScenariosSmoke(t *testing.T) {
	out, _ := runSim(t, "-list-scenarios")
	for _, name := range []string{"default", "fig3", "fig7", "fig8", "fig13", "churn-crash", "slo-tail"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list-scenarios missing %s:\n%s", name, out)
		}
	}
}

// TestScenarioSmoke runs a scenario grid end to end with -v and -plot:
// stdout holds the table and its plot, the per-point result lines go to
// stderr.
func TestScenarioSmoke(t *testing.T) {
	out, errOut := runSim(t, "-scenario", builtinCopy(t, "churn-crash", 400), "-v", "-plot")
	if !strings.HasPrefix(out, "# Scenario churn-crash (apache): cluster throughput (req/s) vs nodes\nnodes\tlard-PHTTP\n") {
		t.Errorf("scenario output does not open with the churn-crash table:\n%s", out)
	}
	if !strings.Contains(out, "┤") {
		t.Errorf("no plot on stdout:\n%s", out)
	}
	if strings.Contains(out, "req/s  hit=") {
		t.Errorf("per-point result lines on stdout:\n%s", out)
	}
	if n := strings.Count(errOut, "req/s  hit="); n != 2 {
		t.Errorf("stderr holds %d result lines, want one per grid point (2):\n%s", n, errOut)
	}
}

// TestFigureGoldens pins the paper's simulation figures: phttp-sim
// -scenario figN over the builtin with a 2000-connection workload prints
// testdata/figN.golden byte for byte. It runs with -v, so the per-point
// result lines are also held off stdout. On a mismatch the output is
// logged whole; replace the file with it only for an intended change.
func TestFigureGoldens(t *testing.T) {
	for _, name := range []string{"fig3", "fig7", "fig8"} {
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runSim(t, "-scenario", builtinCopy(t, name, 2000), "-v")
		if got != string(want) {
			t.Errorf("%s differs from testdata/%s.golden; this run printed:\n%s", name, name, got)
		}
	}
}

// TestBuiltinScenariosRun runs every builtin scenario through the binary
// on a 400-connection workload: each must compile, run every grid point
// and print its table or result line.
func TestBuiltinScenariosRun(t *testing.T) {
	for _, name := range scenario.BuiltinNames() {
		out, _ := runSim(t, "-scenario", builtinCopy(t, name, 400), "-workers", "2")
		if !strings.HasPrefix(out, "# Scenario "+name+" ") && !strings.Contains(out, "req/s  hit=") {
			t.Errorf("%s printed neither a table nor a result line:\n%s", name, out)
		}
	}
}

// TestGridAxisLabel: a grid's x-axis column and title name the swept
// axis, not "nodes" for every grid.
func TestGridAxisLabel(t *testing.T) {
	for _, tc := range []struct{ sweep, cluster, axis string }{
		{`{"frontends":[1,2]}`, `{"nodes":2,"state":"sharded"}`, "frontends"},
		{`{"stalenessMs":[10,100]}`, `{"nodes":2,"frontends":2,"state":"replicated"}`, "staleness(ms)"},
	} {
		spec := fmt.Sprintf(`{"version":1,"name":"axis","workload":{"synth":{"connections":400}},
			"policy":{"name":"lard"},"cluster":%s,"sweep":%s}`, tc.cluster, tc.sweep)
		out, _ := runSim(t, "-scenario", writeSpec(t, []byte(spec)))
		want := "# Scenario axis (apache): cluster throughput (req/s) vs " + tc.axis + "\n" + tc.axis + "\tlard-PHTTP\n"
		if !strings.HasPrefix(out, want) {
			t.Errorf("%s sweep: output does not open with\n%s\ngot:\n%s", tc.axis, want, out)
		}
	}
}

func TestScenarioUnknown(t *testing.T) {
	out, err := exec.Command(simBin, "-scenario", "fig99").CombinedOutput()
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if !strings.Contains(string(out), "fig7") {
		t.Errorf("unknown-scenario error does not list builtins:\n%s", out)
	}
}
