package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

func TestHelpSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "phttp-tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "-h").CombinedOutput(); err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	// A trace is named by its config: nothing writes or reads a trace file.
	for _, f := range []string{"-in", "-out", "-block-size"} {
		if out, err := exec.Command(bin, f, "1", "-stats").CombinedOutput(); err == nil {
			t.Errorf("%s accepted:\n%s", f, out)
		}
	}
}
