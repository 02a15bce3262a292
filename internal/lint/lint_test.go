package lint_test

import (
	"errors"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phttp/internal/lint"
	"phttp/internal/lint/linttest"
)

// repoRoot is the module root, two levels up from internal/lint.
func repoRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(abs, "go.mod")); err != nil {
		t.Fatalf("expected go.mod at %s: %v", abs, err)
	}
	return abs
}

// The four golden suites: each fixture seeds every violation class its
// analyzer must catch and keeps clean lines as false-positive guards.

func TestNondetermGolden(t *testing.T) {
	// The fixture is checked under a determinism-scoped import path;
	// nondeterm only fires inside lint.DeterminismPaths.
	linttest.Run(t, "testdata/nondeterm", "phttp/internal/sim/ndfix", lint.NewNondeterm())
}

func TestHotpathGolden(t *testing.T) {
	linttest.Run(t, "testdata/hotpath", "phttp/internal/lint/testdata/hpfix", lint.NewHotpath())
	// The wire layer's functions must stay annotated: the fixture stands
	// in for internal/httpmsg with one annotation dropped and one function
	// renamed.
	linttest.Run(t, "testdata/hotreq", "phttp/internal/httpmsg", lint.NewHotpath())
	// So must the simulator's event loop: the fixture stands in for
	// internal/simcore with one annotation dropped, one function renamed
	// and one deleted.
	linttest.Run(t, "testdata/hotreqsim", "phttp/internal/simcore", lint.NewHotpath())
	// So must the mapping table's reads, which must also take no lock: the
	// fixture stands in for internal/cache with two reads that lock, one
	// annotation dropped and one function renamed.
	linttest.Run(t, "testdata/hotreqcache", "phttp/internal/cache", lint.NewHotpath())
}

func TestAtomicmixGolden(t *testing.T) {
	linttest.Run(t, "testdata/atomicmix", "phttp/internal/lint/testdata/amfix", lint.NewAtomicmix())
}

// TestNondetermOutOfScope proves the scope gate: the same fixture full
// of wall-clock reads and RNG draws is silent when its import path is
// outside DeterminismPaths.
func TestNondetermOutOfScope(t *testing.T) {
	files, err := filepath.Glob("testdata/nondeterm/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files: %v", err)
	}
	diags := linttest.Check(t, repoRoot(t), files, "phttp/internal/cluster/ndfix", lint.NewNondeterm())
	if len(diags) != 0 {
		t.Fatalf("nondeterm fired outside DeterminismPaths: %v", diags)
	}
}

// TestRepoClean is the self-hosting gate: the full analyzer suite over
// every package in the module must come back clean. This is the same
// run `make lint-phttp` and CI perform via cmd/phttp-lint.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root := repoRoot(t)
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("load module packages: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	diags, err := lint.Run(pkgs, lint.NewSuite())
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestInjectedDispatchViolation is the acceptance check from the issue:
// copy the real dispatch package aside, inject a fmt.Sprintf into a
// //phttp:hotpath function, and prove the hotpath analyzer rejects it.
func TestInjectedDispatchViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks a package copy")
	}
	root := repoRoot(t)
	srcDir := filepath.Join(root, "internal", "dispatch")
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	var files []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(tmp, name)
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, dst)
	}
	injected := filepath.Join(tmp, "injected.go")
	src := `package dispatch

import "fmt"

//phttp:hotpath
func injectedSprintf(n int64) string { return fmt.Sprintf("conn %d", n) }
`
	if err := os.WriteFile(injected, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	files = append(files, injected)

	diags := linttest.Check(t, root, files, "phttp/internal/dispatch", lint.NewSuite()...)
	found := false
	for _, d := range diags {
		if d.Analyzer == "hotpath" && strings.Contains(d.Message, "fmt.Sprintf") &&
			strings.Contains(d.Message, "injectedSprintf") {
			found = true
		} else {
			// The copy of the real package must otherwise stay clean.
			t.Errorf("unexpected diagnostic on dispatch copy: %s", d)
		}
	}
	if !found {
		t.Fatal("injected fmt.Sprintf in an annotated dispatch function was not diagnosed")
	}
}

// TestByName covers the analyzer selection used by cmd/phttp-lint's
// -analyzers flag.
func TestByName(t *testing.T) {
	suite := lint.NewSuite()
	sel, err := lint.ByName(suite, []string{"hotpath", "atomicmix"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "hotpath" || sel[1].Name != "atomicmix" {
		t.Fatalf("wrong selection: %v", sel)
	}
	if _, err := lint.ByName(suite, []string{"nosuch"}); err == nil {
		t.Fatal("expected error for unknown analyzer name")
	}
}

// TestAtomicmixFactRoundTrip proves the vettool fact transport: facts
// exported after analyzing the fixture, imported into a fresh analyzer
// instance, must reproduce the exact same Finish diagnostics.
func TestAtomicmixFactRoundTrip(t *testing.T) {
	files, err := filepath.Glob("testdata/atomicmix/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files: %v", err)
	}
	am := lint.NewAtomicmix()
	direct := linttest.Check(t, repoRoot(t), files, "phttp/internal/lint/testdata/amfix", am)
	if len(direct) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	blob, err := am.Facts.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	am2 := lint.NewAtomicmix()
	if err := am2.Facts.Import(blob); err != nil {
		t.Fatalf("import: %v", err)
	}
	var replayed []lint.Diagnostic
	if err := am2.Finish(func(d lint.Diagnostic) { replayed = append(replayed, d) }); err != nil {
		t.Fatalf("finish: %v", err)
	}
	lint.SortDiagnostics(replayed)
	if len(replayed) != len(direct) {
		t.Fatalf("round trip changed diagnostic count: %d vs %d", len(replayed), len(direct))
	}
	for i := range direct {
		if direct[i].String() != replayed[i].String() {
			t.Errorf("diagnostic %d diverged:\n direct:   %s\n replayed: %s", i, direct[i], replayed[i])
		}
	}
}

// TestSortDiagnostics pins the stable output order through every
// tie-breaker: file, line, column, analyzer, message.
func TestSortDiagnostics(t *testing.T) {
	d := func(file string, line, col int, an, msg string) lint.Diagnostic {
		return lint.Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Message:  msg,
			Analyzer: an,
		}
	}
	diags := []lint.Diagnostic{
		d("b.go", 1, 1, "hotpath", "x"),
		d("a.go", 2, 1, "hotpath", "x"),
		d("a.go", 1, 2, "hotpath", "x"),
		d("a.go", 1, 1, "nondeterm", "x"),
		d("a.go", 1, 1, "hotpath", "y"),
		d("a.go", 1, 1, "hotpath", "x"),
	}
	lint.SortDiagnostics(diags)
	want := []string{
		"a.go:1:1: x [hotpath]",
		"a.go:1:1: y [hotpath]",
		"a.go:1:1: x [nondeterm]",
		"a.go:1:2: x [hotpath]",
		"a.go:2:1: x [hotpath]",
		"b.go:1:1: x [hotpath]",
	}
	for i, w := range want {
		if got := diags[i].String(); got != w {
			t.Errorf("order[%d] = %q, want %q", i, got, w)
		}
	}
}

// TestRunErrors covers the abort paths: an analyzer whose Run or Finish
// fails must abort the whole run with a named error.
func TestRunErrors(t *testing.T) {
	pkgs, err := lint.Load(repoRoot(t), "./internal/lint/linttest")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	boom := &lint.Analyzer{
		Name: "boom",
		Run:  func(*lint.Pass) error { return errors.New("kaput") },
	}
	if _, err := lint.Run(pkgs, []*lint.Analyzer{boom}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run error not propagated: %v", err)
	}
	lateBoom := &lint.Analyzer{
		Name:   "latebound",
		Run:    func(*lint.Pass) error { return nil },
		Finish: func(func(lint.Diagnostic)) error { return errors.New("kaput") },
	}
	if _, err := lint.Run(pkgs, []*lint.Analyzer{lateBoom}); err == nil || !strings.Contains(err.Error(), "latebound") {
		t.Fatalf("Finish error not propagated: %v", err)
	}
}

// TestLoadErrors covers the loader's failure mode on a pattern matching
// nothing resolvable.
func TestLoadErrors(t *testing.T) {
	if _, err := lint.Load(repoRoot(t), "./does/not/exist/..."); err == nil {
		t.Fatal("expected error loading a nonexistent pattern")
	}
}

// TestFactImportGarbage: a corrupt vetx payload must error, not panic.
func TestFactImportGarbage(t *testing.T) {
	am := lint.NewAtomicmix()
	if err := am.Facts.Import([]byte("not a gob stream")); err == nil {
		t.Fatal("expected error importing garbage facts")
	}
}
