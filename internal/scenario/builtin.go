package scenario

import (
	"embed"
	"fmt"
	"os"
	"sort"
	"strings"
)

// The builtin scenarios ship embedded so every binary can run the paper's
// figure experiments (and the open-registry demo policies) by name with no
// files on disk. They go through the same Parse/Validate path as a user
// file, and phttp-sim's TestBuiltinScenariosRun runs every one of them —
// an invalid builtin fails a test, not a user's run.
//
//go:embed builtin/*.json
var builtinFS embed.FS

// Builtin returns the named embedded scenario (see BuiltinNames). The
// error lists the valid names.
func Builtin(name string) (*Spec, error) {
	data, err := builtinFS.ReadFile("builtin/" + strings.ToLower(strings.TrimSpace(name)) + ".json")
	if err != nil {
		return nil, fmt.Errorf("scenario: unknown builtin %q (valid: %s)",
			name, strings.Join(BuiltinNames(), ", "))
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: builtin %q: %w", name, err)
	}
	return s, nil
}

// BuiltinNames returns the embedded scenario names, sorted.
func BuiltinNames() []string {
	entries, err := builtinFS.ReadDir("builtin")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// LoadOrBuiltin resolves the argument of a -scenario flag: an existing
// file path loads from disk, anything else must be a builtin name. A
// missing file whose name is not a builtin reports the file error (the
// likelier intent when the argument looks like a path).
func LoadOrBuiltin(arg string) (*Spec, error) {
	if _, err := os.Stat(arg); err == nil {
		return Load(arg)
	}
	s, berr := Builtin(arg)
	if berr == nil {
		return s, nil
	}
	if strings.ContainsAny(arg, "/.") {
		return nil, fmt.Errorf("scenario: no such file %s", arg)
	}
	return nil, berr
}
