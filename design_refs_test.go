package phttp

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignReferencesResolve: every "DESIGN §N" or "DESIGN.md §N"
// reference in the tree — Go source, the Markdown documents, the Makefile
// and the CI workflow — names a numbered section heading of DESIGN.md, so
// renumbering DESIGN cannot leave a reference dangling. CHANGES.md is left
// out: it is a chronicle, and its entries cite DESIGN as it was then.
func TestDesignReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#{2,} (\d+(?:\.\d+)*)\.? `).FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	ref := regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+(?:\.\d+)*)`)
	refs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden directories hold VCS and build state, not references;
			// the CI workflow is the exception.
			if path != "." && path != ".github" && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case path == "CHANGES.md":
			return nil
		case strings.HasSuffix(path, ".go"), strings.HasSuffix(path, ".md"),
			strings.HasSuffix(path, ".yml"), filepath.Base(path) == "Makefile":
		default:
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range ref.FindAllSubmatch(text, -1) {
			refs++
			if !sections[string(m[1])] {
				t.Errorf("%s: %q names no DESIGN.md heading", path, m[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("found no DESIGN references at all; the pattern has rotted")
	}
	t.Logf("%d DESIGN references, %d numbered sections", refs, len(sections))
}
