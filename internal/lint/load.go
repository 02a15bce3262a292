package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load loads and type-checks the module packages matched by patterns
// (relative to dir), importing dependencies from compiler export data so
// no network or external tooling beyond the go command is needed. Only
// non-test Go files are analyzed: the invariants the suite proves are
// production-path invariants, and tests legitimately read wall clocks
// and allocate freely.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errBuf.String())
	}
	exports := map[string]string{}
	var targets []listPackage
	dec := json.NewDecoder(&out)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})
	var pkgs []*Package
	for _, p := range targets {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		var paths []string
		for _, gf := range p.GoFiles {
			paths = append(paths, filepath.Join(p.Dir, gf))
		}
		pkg, err := check(fset, p.ImportPath, paths, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer resolving import paths through
// compiler export data files named by lookup (plus the magic "unsafe").
func exportImporter(fset *token.FileSet, lookup func(path string) (string, bool)) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := lookup(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return unsafeAwareImporter{gc}
}

// unsafeAwareImporter handles "unsafe", which has no export data.
type unsafeAwareImporter struct{ next types.Importer }

func (i unsafeAwareImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.next.Import(path)
}

// check parses and type-checks one package from source files.
func check(fset *token.FileSet, importPath string, files []string, imp types.Importer) (*Package, error) {
	var astFiles []*ast.File
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, astFiles, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	return &Package{Fset: fset, Files: astFiles, Types: tpkg, TypesInfo: info}, nil
}

// CheckFiles type-checks already-listed source files as one package under
// the given import path, resolving imports through exportLookup. The
// linttest fixture loader is built on it: it knows its file set up front
// and must control the package path the analyzers see.
func CheckFiles(fset *token.FileSet, importPath string, files []string, exportLookup func(path string) (string, bool)) (*Package, error) {
	return check(fset, importPath, files, exportImporter(fset, exportLookup))
}
