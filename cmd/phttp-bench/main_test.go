package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"phttp/internal/scenario"
)

func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "phttp-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestHelpSmoke(t *testing.T) {
	if out, err := exec.Command(buildBench(t), "-h").CombinedOutput(); err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
}

// TestOnlyRejectsUnknownCombo: a mistyped combo must fail and name the
// valid combinations, Figure 13's among them, not print empty tables and
// exit 0; a combo the prototype does not run fails before any point runs.
func TestOnlyRejectsUnknownCombo(t *testing.T) {
	bin := buildBench(t)
	out, err := exec.Command(bin, "-scenario", "fig7", "-set", `sweep.combos=["WRR-TELNET"]`).CombinedOutput()
	if err == nil {
		t.Fatalf("unknown combo exited 0:\n%s", out)
	}
	fig13, err := scenario.Builtin("fig13")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fig13.Sweep.Combos {
		if !strings.Contains(string(out), name) {
			t.Errorf("error does not list %s:\n%s", name, out)
		}
	}
	out, err = exec.Command(bin, "-set", "workload.synth.connections=50",
		"-set", `sweep.combos=["WRR","zeroCost-extLARD-PHTTP"]`).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "zeroCost-extLARD-PHTTP: scenario: the prototype does not run mechanism zeroCost") {
		t.Fatalf("simulator-only combo: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "req/s") {
		t.Errorf("a point ran before the refusal:\n%s", out)
	}
}
