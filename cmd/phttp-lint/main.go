// Command phttp-lint runs the repo's invariant analyzers (DESIGN.md §16):
//
//	nondeterm  no wall-clock/global-RNG/map-order results in determinism-critical packages
//	hotpath    no allocation idioms in functions annotated //phttp:hotpath
//	atomicmix  sync/atomic only through typed atomics, never its package-level functions
//
// Over package patterns (exit 1 on findings, 2 on errors):
//
//	phttp-lint ./...
//	phttp-lint -analyzers hotpath,atomicmix ./internal/dispatch/...
//
// Each analyzer decides each package alone, so one process loads the
// matched packages and reports on them in position order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"phttp/internal/lint"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
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
