package main

import "testing"

// TestListAnalyzers exercises the -list path.
func TestListAnalyzers(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
}

// TestStandaloneCleanPackage runs the full suite over one real package,
// which must be clean.
func TestStandaloneCleanPackage(t *testing.T) {
	if code := run([]string{"-C", "../..", "./internal/cache/..."}); code != 0 {
		t.Fatalf("run(./internal/cache/...) = %d, want 0", code)
	}
}
