// Package dispatch owns the full dispatch lifecycle shared by the
// trace-driven simulator and the cluster prototype: an open policy
// registry (the one source of truth for policy names and their option
// schemas), connection-state tracking, and a concurrency-safe engine API
// (ConnOpen / AssignBatch / ConnClose / ReportDiskQueue).
//
// The paper's central artifact is exactly this module: one policy
// implementation drives both the simulation study and the FreeBSD
// prototype. Here the same Spec builds the same policy object for both
// drivers, so a policy/params combination is defined once and behaves
// identically in simulation and in the prototype.
//
// The registry is open: any package may add a policy with Register (see
// examples/custom-policy), supplying a constructor plus a typed option
// schema that Build validates and defaults. The built-in policies (wrr,
// lard, lardr, extlard, p2c, boundedch) register themselves through the
// same public API in builtins.go.
package dispatch

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"phttp/internal/core"
	"phttp/internal/policy"
)

// Options is the generic policy-construction parameter map: option key →
// value. Keys and their types are declared by each policy's Builder; Build
// validates every entry against the schema, fills defaults for missing keys,
// and rejects unknown keys or mistyped values. Numeric JSON values
// (float64) coerce to the declared integer kinds when integral, so options
// decoded from a scenario file pass through without caller-side casts.
type Options map[string]any

// OptionKind is the declared type of one option.
type OptionKind int

const (
	// KindBool is a boolean option.
	KindBool OptionKind = iota
	// KindInt is a machine-int option (node counts, replica counts).
	KindInt
	// KindInt64 is a 64-bit option (byte budgets).
	KindInt64
	// KindFloat is a float64 option (thresholds, cost constants).
	KindFloat
	// KindString is a string option (enumerations like mechanism names).
	KindString
)

func (k OptionKind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindInt64:
		return "int64"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("OptionKind(%d)", int(k))
	}
}

// OptionSpec declares one option of a policy's schema: its key, type,
// default value and help text. Defaults must match the declared kind;
// Register verifies this so a registered schema can never produce a
// mistyped default at Build time.
type OptionSpec struct {
	// Key is the option name as it appears in Spec.Options and scenario
	// files (kebab-case by convention: "cache-bytes", "disk-queue-low").
	Key string
	// Kind is the declared value type.
	Kind OptionKind
	// Default is the value used when the key is absent (and no legacy
	// Spec alias supplies one).
	Default any
	// Help is a one-line description for Describe and help text.
	Help string
}

// BuildArgs is what a policy constructor receives: the node count plus the
// fully resolved option set — every declared key present with a value of
// its declared type (supplied, legacy-aliased, or defaulted).
type BuildArgs struct {
	Nodes   int
	Options Options
}

// The typed accessors panic on an undeclared key or kind mismatch: by the
// time a constructor runs, resolution has guaranteed every declared key is
// present and correctly typed, so a panic here is a builder bug (asking for
// a key its own schema does not declare), not a user error.

// Bool returns the resolved bool option key.
func (a BuildArgs) Bool(key string) bool { return a.opt(key).(bool) }

// Int returns the resolved int option key.
func (a BuildArgs) Int(key string) int { return a.opt(key).(int) }

// Int64 returns the resolved int64 option key.
func (a BuildArgs) Int64(key string) int64 { return a.opt(key).(int64) }

// Float returns the resolved float option key.
func (a BuildArgs) Float(key string) float64 { return a.opt(key).(float64) }

// String returns the resolved string option key.
func (a BuildArgs) String(key string) string { return a.opt(key).(string) }

func (a BuildArgs) opt(key string) any {
	v, ok := a.Options[key]
	if !ok {
		panic(fmt.Sprintf("dispatch: builder read undeclared option %q", key))
	}
	return v
}

// Mechanism parses the "mechanism" string option (see core.ParseMechanism).
// Registered schemas validate the name at Build time via OptionSpec
// validation, so by construction this cannot fail for a declared mechanism
// option; the error return covers third-party builders that declare the key
// with a nonstandard default.
func (a BuildArgs) Mechanism(key string) (core.Mechanism, error) {
	return core.ParseMechanism(a.String(key))
}

// Builder registers one policy: a constructor plus the option schema Build
// validates against and the help text Describe reports.
type Builder struct {
	// New constructs the policy. It runs only after option resolution, so
	// every declared key is present in args.Options with its declared type.
	New func(args BuildArgs) (core.Policy, error)
	// Options is the typed option schema (may be empty).
	Options []OptionSpec
	// Help is a one-line description of the policy.
	Help string
}

// Description is the introspectable form of a registered policy, as
// returned by Describe: the canonical name, help text, and option schema
// with defaults. The Options slice is a copy; callers may keep it.
type Description struct {
	Name    string
	Help    string
	Options []OptionSpec
}

// registry is the open policy registry. The lock makes Register safe from
// concurrent init paths and tests; lookups copy what they need out.
var registry = struct {
	sync.RWMutex
	builders map[string]Builder
}{builders: make(map[string]Builder)}

// Register adds a policy to the registry under the canonical (lower-case)
// form of name. It fails on a duplicate name, an empty name, a missing
// constructor, a duplicate option key, or a schema whose default value does
// not match its declared kind — all programmer errors surfaced at
// registration so Build never meets a malformed schema.
func Register(name string, b Builder) error {
	canonical := strings.ToLower(strings.TrimSpace(name))
	if canonical == "" {
		return fmt.Errorf("dispatch: Register with empty policy name")
	}
	if b.New == nil {
		return fmt.Errorf("dispatch: Register(%q) with nil constructor", name)
	}
	seen := make(map[string]bool, len(b.Options))
	for _, o := range b.Options {
		if o.Key == "" {
			return fmt.Errorf("dispatch: Register(%q): option with empty key", name)
		}
		if seen[o.Key] {
			return fmt.Errorf("dispatch: Register(%q): duplicate option key %q", name, o.Key)
		}
		seen[o.Key] = true
		if _, err := coerce(o, o.Default); err != nil {
			return fmt.Errorf("dispatch: Register(%q): default for option %q: %w", name, o.Key, err)
		}
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.builders[canonical]; dup {
		return fmt.Errorf("dispatch: policy %q already registered", canonical)
	}
	registry.builders[canonical] = b
	return nil
}

// MustRegister is Register, panicking on error — the natural form for
// package init functions.
func MustRegister(name string, b Builder) {
	if err := Register(name, b); err != nil {
		panic(err)
	}
}

// Names returns the canonical policy names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.builders))
	for name := range registry.builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the registered policy's name, help text and option
// schema (with defaults). The name is normalized like Canonical.
func Describe(name string) (Description, error) {
	canonical, err := Canonical(name)
	if err != nil {
		return Description{}, err
	}
	registry.RLock()
	b := registry.builders[canonical]
	registry.RUnlock()
	return Description{
		Name:    canonical,
		Help:    b.Help,
		Options: append([]OptionSpec(nil), b.Options...),
	}, nil
}

// Canonical normalizes name to its registry form, or returns an error
// listing the valid names.
func Canonical(name string) (string, error) {
	c := strings.ToLower(strings.TrimSpace(name))
	registry.RLock()
	_, ok := registry.builders[c]
	registry.RUnlock()
	if !ok {
		return "", fmt.Errorf("dispatch: unknown policy %q (valid policies: %s)",
			name, strings.Join(Names(), ", "))
	}
	return c, nil
}

// lookup returns the canonical name and builder.
func lookup(name string) (string, Builder, error) {
	canonical, err := Canonical(name)
	if err != nil {
		return "", Builder{}, err
	}
	registry.RLock()
	b := registry.builders[canonical]
	registry.RUnlock()
	return canonical, b, nil
}

// Spec names a policy and its construction parameters. It is the single
// currency for building policies anywhere in the system.
//
// Generic construction parameters live in Options, validated against the
// policy's registered schema. The typed legacy fields (CacheBytes, Params,
// Mechanism) predate the open registry; they are kept as deprecated aliases
// so every existing caller — and every golden-tested figure — builds the
// exact policy it always has. Alias resolution per declared option key:
//
//  1. Options[key], when present (always wins);
//  2. the legacy alias value, when the key is aliased and the legacy field
//     was set (CacheBytes != 0; Params != policy.Params{}, taken as a unit;
//     Mechanism always, because its zero value — singleHandoff — is
//     meaningful and equals the schema default);
//  3. the schema default.
type Spec struct {
	// Policy is a registry name ("wrr", "lard", "lardr", "extlard", "p2c",
	// "boundedch", or anything added via Register), case-insensitive.
	Policy string
	// Nodes is the number of back-end nodes.
	Nodes int
	// Options are the policy construction options, validated against the
	// registered schema (see Describe).
	Options Options

	// CacheBytes sizes the per-node target→node mapping model for the
	// LARD family.
	//
	// Deprecated: alias for Options["cache-bytes"].
	CacheBytes int64
	// Params are the LARD-family tuning constants.
	//
	// Deprecated: alias for Options["l-idle"], ["l-overload"],
	// ["miss-cost"] and ["disk-queue-low"].
	Params policy.Params
	// Mechanism is the distribution mechanism the policy drives; only
	// extended LARD changes behavior with it.
	//
	// Deprecated: alias for Options["mechanism"].
	Mechanism core.Mechanism

	// Interner resolves target strings to the dense TargetIDs the policies
	// and mapping tables are keyed by. Drivers that pre-intern their
	// workload (the simulator's trace loader) pass theirs so IDs agree;
	// when nil the engine creates a private one — uncapped, or capped
	// when MaxTargets is set — and the driver interns through it at the
	// edge (the prototype parses with httpmsg.ReadRequestInterned).
	Interner *core.Interner
	// MaxTargets, when positive and Interner is nil, caps the engine's
	// private interner at that many targets, so a front-end facing an
	// unbounded URL space holds a bounded table: a target past the cap
	// gets NoTarget, is placed by load alone and leaves no mapping entry.
	// Zero keeps the table uncapped (simulation, trace replay,
	// benchmarks).
	MaxTargets int
	// ConnIDBase offsets the engine's connection-ID space. Front-ends of
	// a scale-out tier talking to shared back-ends set distinct bases so
	// the IDs they put on the wire (handoff frames, control lines) never
	// collide; 0 — the single-front-end default — keeps IDs starting at 1.
	ConnIDBase int64
}

// legacyAlias returns the legacy Spec field value standing in for an
// absent option key, per the resolution order documented on Spec.
func legacyAlias(spec Spec, key string) (any, bool) {
	zero := policy.Params{}
	switch key {
	case "cache-bytes":
		if spec.CacheBytes != 0 {
			return spec.CacheBytes, true
		}
	case "l-idle":
		if spec.Params != zero {
			return spec.Params.LIdle, true
		}
	case "l-overload":
		if spec.Params != zero {
			return spec.Params.LOverload, true
		}
	case "miss-cost":
		if spec.Params != zero {
			return spec.Params.MissCost, true
		}
	case "disk-queue-low":
		if spec.Params != zero {
			return spec.Params.DiskQueueLow, true
		}
	case "mechanism":
		return spec.Mechanism.String(), true
	}
	return nil, false
}

// coerce validates v against o's declared kind, converting compatible
// numeric representations (JSON decodes every number as float64; Go callers
// naturally write int literals for int64 options).
func coerce(o OptionSpec, v any) (any, error) {
	mistyped := func() (any, error) {
		return nil, fmt.Errorf("option %q wants %s, got %T (%v)", o.Key, o.Kind, v, v)
	}
	switch o.Kind {
	case KindBool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	case KindInt:
		if n, ok := toInt64(v); ok {
			return int(n), nil
		}
	case KindInt64:
		if n, ok := toInt64(v); ok {
			return n, nil
		}
	case KindFloat:
		switch n := v.(type) {
		case float64:
			return n, nil
		case float32:
			return float64(n), nil
		case int:
			return float64(n), nil
		case int64:
			return float64(n), nil
		}
	case KindString:
		if s, ok := v.(string); ok {
			return s, nil
		}
	default:
		return nil, fmt.Errorf("option %q declares unknown kind %v", o.Key, o.Kind)
	}
	return mistyped()
}

// toInt64 accepts the integer representations a value may arrive in,
// including integral floats from JSON decoding.
func toInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case int64:
		return n, true
	case uint64:
		if n > math.MaxInt64 {
			return 0, false
		}
		return int64(n), true
	case float64:
		if n == math.Trunc(n) && !math.IsInf(n, 0) {
			return int64(n), true
		}
	}
	return 0, false
}

// ResolveOptions validates spec.Options against the named policy's schema
// and returns the fully resolved option set: every declared key present,
// correctly typed, populated from (in order) Options, the legacy Spec
// aliases, then schema defaults. Unknown keys are an error — a misspelled
// option must fail loudly, not silently fall back to a default.
func ResolveOptions(spec Spec) (Options, error) {
	name, b, err := lookup(spec.Policy)
	if err != nil {
		return nil, err
	}
	declared := make(map[string]bool, len(b.Options))
	for _, o := range b.Options {
		declared[o.Key] = true
	}
	for key := range spec.Options {
		if !declared[key] {
			return nil, fmt.Errorf("dispatch: policy %q: unknown option %q (valid options: %s)",
				name, key, strings.Join(optionKeys(b.Options), ", "))
		}
	}
	out := make(Options, len(b.Options))
	for _, o := range b.Options {
		switch v, ok := spec.Options[o.Key]; {
		case ok:
			cv, err := coerce(o, v)
			if err != nil {
				return nil, fmt.Errorf("dispatch: policy %q: %w", name, err)
			}
			out[o.Key] = cv
		default:
			v, ok := legacyAlias(spec, o.Key)
			if !ok {
				v = o.Default
			}
			cv, err := coerce(o, v)
			if err != nil {
				return nil, fmt.Errorf("dispatch: policy %q: %w", name, err)
			}
			out[o.Key] = cv
		}
	}
	return out, nil
}

func optionKeys(opts []OptionSpec) []string {
	keys := make([]string, len(opts))
	for i, o := range opts {
		keys[i] = o.Key
	}
	sort.Strings(keys)
	return keys
}

// Build instantiates the policy named by spec. It is the only policy
// construction path in the system: the simulator and the prototype
// front-end both come through here.
func Build(spec Spec) (core.Policy, error) {
	name, b, err := lookup(spec.Policy)
	if err != nil {
		return nil, err
	}
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("dispatch: policy %q needs at least one node, got %d", name, spec.Nodes)
	}
	opts, err := ResolveOptions(spec)
	if err != nil {
		return nil, err
	}
	pol, err := b.New(BuildArgs{Nodes: spec.Nodes, Options: opts})
	if err != nil {
		return nil, fmt.Errorf("dispatch: building policy %q: %w", name, err)
	}
	return pol, nil
}
