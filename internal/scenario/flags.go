package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"strings"
)

// setFlags collects repeated -set key=value arguments in order.
type setFlags []string

func (s *setFlags) String() string { return strings.Join(*s, " ") }

func (s *setFlags) Set(v string) error {
	if k, _, ok := strings.Cut(v, "="); !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", v)
	}
	*s = append(*s, v)
	return nil
}

// Flags registers -scenario (defaulting to the builtin def) and the
// repeatable -set on fs: the one way every binary is told what to run.
// After fs.Parse, the returned function resolves the spec — the scenario
// loaded, then each -set applied in order (see With).
func Flags(fs *flag.FlagSet, def string) func() (*Spec, error) {
	arg := fs.String("scenario", def, "the run's scenario: a builtin name (phttp-sim -list-scenarios) or a JSON file")
	var sets setFlags
	fs.Var(&sets, "set", "override one scenario `key=value`: the key is a JSON path such as cluster.nodes, policy.options.l-idle or workload.synth.connections, the value JSON or else a bare string; repeatable, applied in order")
	return func() (*Spec, error) {
		s, err := LoadOrBuiltin(*arg)
		if err != nil {
			return nil, err
		}
		return s.With(sets...)
	}
}

// With returns the spec with each key=value override applied in order to
// its JSON object form. A key is the field's JSON path (cluster.cacheMB,
// policy.options.l-idle, sweep.nodes); missing objects on the path are
// created. A value is decoded as JSON when it parses (4, true, [1,2],
// "x", null) and taken as a bare string otherwise. The result goes
// through Parse, so a misspelled key or a mistyped value fails as it
// would in a file, and the error names the override.
func (s *Spec) With(sets ...string) (*Spec, error) {
	if len(sets) == 0 {
		return s, nil
	}
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var obj map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // a 64-bit seed survives the round trip exactly
	if err := dec.Decode(&obj); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	for _, kv := range sets {
		key, val, _ := strings.Cut(kv, "=")
		if err := setPath(obj, strings.Split(key, "."), parseValue(val)); err != nil {
			return nil, fmt.Errorf("scenario: -set %s: %w", kv, err)
		}
		// Decode after each override, so an unknown key or a mistyped
		// value is blamed on the override that brought it.
		if data, err = json.Marshal(obj); err != nil {
			return nil, fmt.Errorf("scenario: -set %s: %w", kv, err)
		}
		if err := decodeStrict(json.NewDecoder(bytes.NewReader(data)), new(Spec)); err != nil {
			return nil, fmt.Errorf("scenario: -set %s: %w", kv, err)
		}
	}
	out, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: with -set %s: %s", strings.Join(sets, " -set "),
			strings.TrimPrefix(err.Error(), "scenario: "))
	}
	return out, nil
}

// parseValue decodes an override's value as JSON, or keeps it as a bare
// string.
func parseValue(val string) any {
	dec := json.NewDecoder(strings.NewReader(val))
	dec.UseNumber()
	var v any
	if dec.Decode(&v) != nil || dec.More() {
		return val
	}
	return v
}

// setPath stores v at the dotted path inside obj, creating missing
// objects along the way.
func setPath(obj map[string]any, path []string, v any) error {
	for i, k := range path[:len(path)-1] {
		switch next := obj[k].(type) {
		case map[string]any:
			obj = next
		case nil:
			m := map[string]any{}
			obj[k] = m
			obj = m
		default:
			return fmt.Errorf("%s is not an object", strings.Join(path[:i+1], "."))
		}
	}
	obj[path[len(path)-1]] = v
	return nil
}
