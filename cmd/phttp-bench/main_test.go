package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// TestOnlyRejectsUnknownCombo: a mistyped -only must fail and name the
// valid combinations, not print empty Figure 13 tables and exit 0.
func TestOnlyRejectsUnknownCombo(t *testing.T) {
	out, err := exec.Command(buildBench(t), "-only", "WRR-PHTP", "-max-nodes", "1", "-connections", "50").CombinedOutput()
	if err == nil {
		t.Fatalf("typo in -only exited 0:\n%s", out)
	}
	fig13, _ := benchCombos("")
	for _, c := range fig13 {
		if !strings.Contains(string(out), c.Name) {
			t.Errorf("error does not list %s:\n%s", c.Name, out)
		}
	}
}

// TestScenarioCombosPointsAtRealCommands: a combos scenario is refused
// with a hint naming commands that exist.
func TestScenarioCombosPointsAtRealCommands(t *testing.T) {
	out, err := exec.Command(buildBench(t), "-scenario", "fig7").CombinedOutput()
	if err == nil {
		t.Fatalf("combos scenario accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "phttp-sim -scenario fig7") || strings.Contains(string(out), "-fig") {
		t.Errorf("hint does not name a real command:\n%s", out)
	}
}
