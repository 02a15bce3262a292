package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //phttp: directive namespace (DESIGN.md §16.2). A directive is a
// single line comment of the form
//
//	//phttp:<name>            e.g. //phttp:hotpath
//	//phttp:<name> <reason>   free-text rationale after the first space
//
// attached either to a declaration (in its doc comment) or to a
// statement (on the same line, or alone on the line directly above).
const (
	// DirHotpath marks a function whose body must stay allocation-free:
	// the hotpath analyzer rejects closures that capture, fmt/log calls,
	// string concatenation, map literals, and interface boxing of
	// non-pointer values inside it.
	DirHotpath = "hotpath"

	// DirWallclock excuses one wall-clock read (time.Now and friends) in
	// a determinism-critical package — benchmarks measuring real elapsed
	// time, maintenance tickers.
	DirWallclock = "wallclock"
)

const directivePrefix = "//phttp:"

// parseDirective splits one comment into a directive name, or "" when
// the comment is not a phttp directive.
func parseDirective(c *ast.Comment) string {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return ""
	}
	rest := c.Text[len(directivePrefix):]
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// funcDirective reports whether fn's doc comment carries the named
// directive.
func funcDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if parseDirective(c) == name {
			return true
		}
	}
	return false
}

// lineDirectives indexes every directive comment in a file by line, so
// statement-level opt-outs can be resolved in O(1) per node.
type lineDirectives struct {
	fset  *token.FileSet
	lines map[int]map[string]bool
}

func newLineDirectives(fset *token.FileSet, file *ast.File) *lineDirectives {
	ld := &lineDirectives{fset: fset, lines: map[int]map[string]bool{}}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			name := parseDirective(c)
			if name == "" {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if ld.lines[line] == nil {
				ld.lines[line] = map[string]bool{}
			}
			ld.lines[line][name] = true
		}
	}
	return ld
}

// excused reports whether the named directive appears on pos's line or
// the line directly above it.
func (ld *lineDirectives) excused(pos token.Pos, name string) bool {
	line := ld.fset.Position(pos).Line
	return ld.lines[line][name] || ld.lines[line-1][name]
}
