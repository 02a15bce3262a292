// Package lint implements phttp-lint: a suite of repo-specific static
// analyzers that prove, at build time, the invariants the test suite can
// only sample — deterministic simulation (no wall-clock or global-RNG
// reads in determinism-critical packages), zero-allocation hot paths
// (functions annotated //phttp:hotpath), and atomics that cannot be
// mixed with plain access (sync/atomic only through its typed atomics).
// Every analyzer decides each package alone.
//
// The suite is deliberately framework-light: the container this repo is
// grown in has no network and no golang.org/x/tools, so a ~200-line
// stdlib-only core (go/parser + go/types, dependencies imported from
// compiler export data via `go list -export`) stands in for
// go/analysis. The analyzer API mirrors go/analysis closely (Analyzer,
// Pass, Diagnostic, `// want` golden tests) so a future PR can swap the
// chassis for the real multichecker without touching analyzer logic.
// DESIGN.md §16 is the catalog and directive reference.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding, carrying a resolved position so
// reports from every package sort into one list.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one package through one analyzer, go/analysis style.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Analyzer is one named check. Run is invoked once per package and
// reports from that package alone: no analyzer keeps state across
// packages.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// NewSuite returns fresh instances of the three phttp analyzers, in
// stable order: nondeterm, hotpath, atomicmix.
func NewSuite() []*Analyzer {
	return []*Analyzer{
		NewNondeterm(),
		NewHotpath(),
		NewAtomicmix(),
	}
}

// Run applies every analyzer to every package, returning all
// diagnostics sorted by position. Analyzer errors
// (not diagnostics) abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		checkDirectives(pkg, report)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				report:    report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// checkDirectives rejects unknown names in the //phttp: namespace, so a
// typo (//phttp:wallclok) fails the build instead of silently opting a
// site out of its analyzer.
func checkDirectives(pkg *Package, report func(Diagnostic)) {
	known := map[string]bool{DirHotpath: true, DirWallclock: true}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name := parseDirective(c)
				if name == "" || known[name] {
					continue
				}
				report(Diagnostic{
					Pos:      pkg.Fset.Position(c.Pos()),
					Message:  fmt.Sprintf("unknown directive //phttp:%s (known: hotpath, wallclock)", name),
					Analyzer: "directive",
				})
			}
		}
	}
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer,
// message — the stable order every consumer (CLI, tests, CI) prints in.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ByName returns the analyzers whose names are in sel (comma-free,
// already split); unknown names error so a CI typo cannot silently run
// nothing.
func ByName(all []*Analyzer, sel []string) ([]*Analyzer, error) {
	if len(sel) == 0 {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range sel {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
