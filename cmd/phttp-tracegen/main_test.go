package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "phttp-tracegen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestHelpSmoke(t *testing.T) {
	if out, err := exec.Command(buildBinary(t), "-h").CombinedOutput(); err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
}

// TestBinaryTraceRoundTripEndToEnd is the cmd-level acceptance run: write
// a small workload in the binary format, read it back, and demand the
// printed statistics are identical; then corrupt the file and demand the
// reader rejects it.
func TestBinaryTraceRoundTripEndToEnd(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.bin")

	gen := exec.Command(bin, "-connections", "200", "-out", path, "-stats")
	genOut, err := gen.Output()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("-out did not write the trace: %v", err)
	}

	read := exec.Command(bin, "-in", path)
	readOut, err := read.Output()
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(genOut) != string(readOut) {
		t.Errorf("round-trip stats differ:\ngenerated:\n%s\nloaded:\n%s", genOut, readOut)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	corrupt := filepath.Join(dir, "corrupt.bin")
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "-in", corrupt).CombinedOutput(); err == nil {
		t.Errorf("corrupt trace accepted:\n%s", out)
	}
}

// TestScenarioTraceFile: -scenario on a spec whose workload names a
// traceFile reads that file instead of generating the default synthetic
// workload, and -seed/-connections, which cannot apply to it, fail.
func TestScenarioTraceFile(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.bin")
	want, err := exec.Command(bin, "-connections", "300", "-out", path, "-stats").Output()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	spec := filepath.Join(dir, "spec.json")
	src := `{"version":1,"workload":{"traceFile":"` + path + `"},"policy":{"name":"wrr"},"cluster":{"nodes":2}}`
	if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := exec.Command(bin, "-scenario", spec, "-stats").Output()
	if err != nil {
		t.Fatalf("-scenario: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("-scenario stats differ from the trace file's:\nfile:\n%s\nscenario:\n%s", want, got)
	}
	if out, err := exec.Command(bin, "-scenario", spec, "-connections", "100", "-stats").CombinedOutput(); err == nil {
		t.Errorf("-connections on a trace-file scenario accepted:\n%s", out)
	}
}
