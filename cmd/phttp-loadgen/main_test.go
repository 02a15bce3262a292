package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

func TestHelpSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "phttp-loadgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "-h").CombinedOutput(); err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	// A trace is named by its config: there is no trace file to replay.
	if out, err := exec.Command(bin, "-in", filepath.Join(t.TempDir(), "t.bin")).CombinedOutput(); err == nil {
		t.Errorf("-in accepted:\n%s", out)
	}
}
