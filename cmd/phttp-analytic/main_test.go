package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestHelpAndRunSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "phttp-analytic")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "-h").CombinedOutput(); err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	// The analysis is pure computation: run it for real.
	out, err := exec.Command(bin, "-set", "server.model=apache", "-max-kb", "20").Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(string(out), "crossover") && len(out) == 0 {
		t.Errorf("empty analysis output")
	}
	if bad, err := exec.Command(bin, "-set", "server.model=nonsense").CombinedOutput(); err == nil {
		t.Errorf("unknown server model accepted:\n%s", bad)
	}
}

// TestDelayColumnsPinned pins the per-request delay section: header shape
// and the exact Apache quantile values (pure computation, so the golden
// lines are stable; re-derive by running phttp-analytic -set server.model=apache).
func TestDelayColumnsPinned(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "phttp-analytic")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-set", "server.model=apache", "-max-kb", "5").Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"# per-request delay (ms) under bounded-Pareto sizes (min 2048 B, max 4096 KB, alpha 1.3, mean 7.8 KB)",
		"# mechanism                  mean      p50      p95      p99     p999      max",
		"  apache-multiHandoff       1.596    1.238    2.598    6.478   32.278  328.638",
		"  apache-BEforward          1.728    1.071    3.564   10.678   57.978  601.304",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing pinned line %q\ngot:\n%s", want, out)
		}
	}
}
