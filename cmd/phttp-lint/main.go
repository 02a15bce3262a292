// Command phttp-lint runs the repo's invariant analyzers (DESIGN.md §16):
//
//	nondeterm  no wall-clock/global-RNG/map-order results in determinism-critical packages
//	hotpath    no allocation idioms in functions annotated //phttp:hotpath
//	atomicmix  a field accessed via sync/atomic is accessed that way everywhere
//
// Standalone, over package patterns (exit 1 on findings, 2 on errors):
//
//	phttp-lint ./...
//	phttp-lint -analyzers hotpath,atomicmix ./internal/dispatch/...
//
// Or as a go vet tool, one compilation unit at a time:
//
//	go build -o /tmp/phttp-lint ./cmd/phttp-lint
//	go vet -vettool=/tmp/phttp-lint ./...
//
// In vettool mode the go command invokes the binary with -V=full (version
// stamp for the build cache), -flags (supported flags, none), and finally
// a *.cfg JSON file per package; cross-package facts (atomicmix) travel
// through the vetx files the protocol provides, so a unit sees the fact
// sets of its dependencies. That gives vettool runs a narrower view than
// standalone mode, which sees every package at once: a plain access can
// only be paired with an atomic access in the same unit or an imported
// one. CI therefore runs the standalone form; the vettool form exists so
// `go vet` integration keeps working for developers.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"phttp/internal/lint"
)

func main() {
	// Vettool protocol entries come before flag parsing: the go command
	// invokes `phttp-lint -V=full`, `phttp-lint -flags`, and
	// `phttp-lint <file>.cfg` verbatim.
	args := os.Args[1:]
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "--V=full":
			// The go command caches vet results keyed on this output, so
			// it must change whenever the tool does: stamp a hash of the
			// executable itself.
			fmt.Printf("phttp-lint version v1 build %s\n", selfHash())
			return
		case args[0] == "-flags" || args[0] == "--flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(runUnit(args[0]))
		}
	}
	os.Exit(runStandalone(args))
}

// selfHash fingerprints the running executable for the -V=full stamp.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

func runStandalone(args []string) int {
	fs := flag.NewFlagSet("phttp-lint", flag.ExitOnError)
	var (
		sel  = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list = fs.Bool("list", false, "list analyzers and exit")
		dir  = fs.String("C", ".", "directory to resolve package patterns from")
	)
	fs.Parse(args)

	suite := lint.NewSuite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	var names []string
	if *sel != "" {
		names = strings.Split(*sel, ",")
	}
	analyzers, err := lint.ByName(suite, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phttp-lint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phttp-lint:", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phttp-lint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Printf("%s\n", d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "phttp-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// vetConfig is the subset of the go vet unitchecker config this tool
// consumes.
type vetConfig struct {
	ImportPath  string
	GoFiles     []string
	NonGoFiles  []string
	ImportMap   map[string]string
	PackageFile map[string]string
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// vetxPayload is what one unit writes for its importers: every
// fact-bearing analyzer's exported state, keyed by analyzer name.
type vetxPayload map[string][]byte

// runUnit analyzes one compilation unit under the go vet protocol:
// diagnostics go to stderr and flip the exit code to 2, which go vet
// renders as findings.
func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phttp-lint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "phttp-lint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// Only units of this module are analyzed, mirroring the standalone
	// loader's contract. Dependencies (the go command hands the tool every
	// unit in the build, stdlib included) would cost a full re-typecheck
	// each and report on code we don't own; test binaries and
	// test-augmented variants are out of scope because the suite proves
	// production-path invariants — tests legitimately read wall clocks,
	// leak references on purpose, and poke fields the production code
	// guards with atomics. go vet still expects a vetx file for skipped
	// units, so write an empty one.
	inModule := cfg.ImportPath == "phttp" || strings.HasPrefix(cfg.ImportPath, "phttp/")
	testUnit := strings.Contains(cfg.ImportPath, ".test") || strings.Contains(cfg.ImportPath, " [")
	if !inModule || testUnit {
		return writeVetx(cfg.VetxOutput, vetxPayload{})
	}
	suite := lint.NewSuite()

	// Import dependency facts before running, so cross-package analyzers
	// see everything below this unit in the import graph.
	for _, vetxFile := range cfg.PackageVetx {
		blob, err := os.ReadFile(vetxFile)
		if err != nil {
			continue // a dep without facts is fine
		}
		var payload vetxPayload
		if gob.NewDecoder(bytes.NewReader(blob)).Decode(&payload) != nil {
			continue
		}
		for _, a := range suite {
			if a.Facts == nil {
				continue
			}
			if b, ok := payload[a.Name]; ok {
				if err := a.Facts.Import(b); err != nil {
					fmt.Fprintf(os.Stderr, "phttp-lint: importing %s facts: %v\n", a.Name, err)
					return 1
				}
			}
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		return f, ok
	}
	var goFiles []string
	unitFiles := map[string]bool{}
	for _, f := range cfg.GoFiles {
		if strings.HasSuffix(f, ".go") && !strings.HasSuffix(f, "_test.go") {
			goFiles = append(goFiles, f)
			unitFiles[f] = true
		}
	}
	pkg, err := lint.CheckFiles(fset, cfg.ImportPath, goFiles, lookup)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phttp-lint:", err)
		return 1
	}
	diags, err := lint.Run([]*lint.Package{pkg}, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phttp-lint:", err)
		return 1
	}

	if cfg.VetxOutput != "" {
		payload := vetxPayload{}
		for _, a := range suite {
			if a.Facts == nil {
				continue
			}
			b, err := a.Facts.Export()
			if err != nil {
				fmt.Fprintf(os.Stderr, "phttp-lint: exporting %s facts: %v\n", a.Name, err)
				return 1
			}
			payload[a.Name] = b
		}
		if code := writeVetx(cfg.VetxOutput, payload); code != 0 {
			return code
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// Report only findings located in this unit's own files: fact-driven
	// findings that land in a dependency were (or will be) reported by
	// that dependency's own unit.
	n := 0
	for _, d := range diags {
		if unitFiles[d.Pos.Filename] {
			fmt.Fprintf(os.Stderr, "%s\n", d)
			n++
		}
	}
	if n > 0 {
		return 2
	}
	return 0
}

// writeVetx serializes an analyzer fact payload to the protocol-named
// output file.
func writeVetx(path string, payload vetxPayload) int {
	if path == "" {
		return 0
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		fmt.Fprintln(os.Stderr, "phttp-lint:", err)
		return 1
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "phttp-lint:", err)
		return 1
	}
	return 0
}
