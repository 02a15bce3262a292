// Package dispatch owns the full dispatch lifecycle shared by the
// trace-driven simulator and the cluster prototype: the closed set of the
// paper's policies (wrr, lard, lardr, extlard) and their options,
// connection-state tracking, and a concurrency-safe engine API
// (ConnOpen / AssignBatch / ConnClose / ReportDiskQueue).
//
// The paper's central artifact is exactly this module: one policy
// implementation drives both the simulation study and the FreeBSD
// prototype. Here the same Spec builds the same policy object for both
// drivers, so a policy/params combination is defined once and behaves
// identically in simulation and in the prototype.
package dispatch

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"phttp/internal/core"
	"phttp/internal/policy"
)

// names is the closed policy set, sorted: content-blind weighted
// round-robin, LARD, LARD with replication (the ASPLOS '98 companion
// strategy) and the extended LARD of Section 4.2.
var names = []string{"extlard", "lard", "lardr", "wrr"}

// Names returns the canonical policy names, sorted.
func Names() []string { return append([]string(nil), names...) }

// Canonical normalizes name (case-insensitive, trimmed) to its canonical
// form, or returns an error listing the valid names.
func Canonical(name string) (string, error) {
	c := strings.ToLower(strings.TrimSpace(name))
	for _, n := range names {
		if n == c {
			return c, nil
		}
	}
	return "", fmt.Errorf("dispatch: unknown policy %q (valid policies: %s)",
		name, strings.Join(names, ", "))
}

// Options is the policy option map of a scenario file or a caller: option
// key → value. Only the LARD family takes options, the keys of
// optionTable; Resolve folds them into Spec's typed fields. JSON numbers
// (float64) are accepted for the integer keys when integral, so options
// decoded from a scenario file pass through without caller-side casts.
type Options map[string]any

// optionTable maps each option key to how it sets the resolved Spec. Every
// key but "mechanism" belongs to the whole LARD family; "mechanism" is
// extended LARD's alone, and scenario files set the top-level mechanism
// instead.
var optionTable = map[string]func(s *Spec, v any) error{
	"cache-bytes": func(s *Spec, v any) (err error) {
		s.CacheBytes, err = integer(v)
		return err
	},
	"disk-queue-low": func(s *Spec, v any) error {
		n, err := integer(v)
		s.Params.DiskQueueLow = int(n)
		return err
	},
	"l-idle":     func(s *Spec, v any) (err error) { s.Params.LIdle, err = number(v); return err },
	"l-overload": func(s *Spec, v any) (err error) { s.Params.LOverload, err = number(v); return err },
	"miss-cost":  func(s *Spec, v any) (err error) { s.Params.MissCost, err = number(v); return err },
	"mechanism": func(s *Spec, v any) (err error) {
		name, ok := v.(string)
		if !ok {
			return fmt.Errorf("wants a mechanism name, got %T (%v)", v, v)
		}
		s.Mechanism, err = core.ParseMechanism(name)
		return err
	},
}

// optionKeys returns the sorted option keys policy name takes.
func optionKeys(name string) []string {
	var keys []string
	for key := range optionTable {
		if name != "wrr" && (key != "mechanism" || name == "extlard") {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// integer accepts a Go int or int64, or an integral JSON float64.
func integer(v any) (int64, error) {
	switch n := v.(type) {
	case int:
		return int64(n), nil
	case int64:
		return n, nil
	case float64:
		if n == math.Trunc(n) && math.Abs(n) < 1<<63 {
			return int64(n), nil
		}
	}
	return 0, fmt.Errorf("wants an integer, got %T (%v)", v, v)
}

// number accepts a float64 or a Go int or int64.
func number(v any) (float64, error) {
	switch n := v.(type) {
	case float64:
		return n, nil
	case int:
		return float64(n), nil
	case int64:
		return float64(n), nil
	}
	return 0, fmt.Errorf("wants a number, got %T (%v)", v, v)
}

// Spec names a policy and its construction parameters. It is the single
// currency for building policies anywhere in the system.
//
// The typed fields CacheBytes, Params and Mechanism are the resolved form
// of the policy's options. Resolve fills them per option key, in order:
//
//  1. Options[key], when present (always wins);
//  2. the typed field: CacheBytes when it is not 0, Params as a unit when
//     it is not the zero value, and Mechanism always;
//  3. policy.DefaultParams() for Params (CacheBytes stays 0).
type Spec struct {
	// Policy is one of Names(), case-insensitive.
	Policy string
	// Nodes is the number of back-end nodes.
	Nodes int
	// Options are the policy's options (the keys of optionTable; wrr
	// takes none).
	Options Options

	// CacheBytes sizes the per-node target→node mapping model for the
	// LARD family.
	CacheBytes int64
	// Params are the LARD-family tuning constants.
	Params policy.Params
	// Mechanism is the distribution mechanism the policy drives; only
	// extended LARD changes behavior with it.
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

// Resolve returns spec with its policy name canonical and its Options
// folded into the typed fields, per the order documented on Spec. An
// unknown key, any option for wrr, or a value of the wrong type is an
// error: a misspelled option must fail loudly, not silently fall back to
// a default.
func Resolve(spec Spec) (Spec, error) {
	name, err := Canonical(spec.Policy)
	if err != nil {
		return Spec{}, err
	}
	spec.Policy = name
	if spec.Params == (policy.Params{}) {
		spec.Params = policy.DefaultParams()
	}
	keys := make([]string, 0, len(spec.Options))
	for key := range spec.Options {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	valid := optionKeys(name)
	for _, key := range keys {
		if !slices.Contains(valid, key) {
			if len(valid) == 0 {
				return Spec{}, fmt.Errorf("dispatch: policy %q takes no options, got %q", name, key)
			}
			return Spec{}, fmt.Errorf("dispatch: policy %q: unknown option %q (valid options: %s)",
				name, key, strings.Join(valid, ", "))
		}
		if err := optionTable[key](&spec, spec.Options[key]); err != nil {
			return Spec{}, fmt.Errorf("dispatch: policy %q: option %q %w", name, key, err)
		}
	}
	spec.Options = nil
	return spec, nil
}

// Build instantiates the policy named by spec. It is the only policy
// construction path in the system: the simulator and the prototype
// front-end both come through here.
func Build(spec Spec) (core.Policy, error) {
	spec, err := Resolve(spec)
	if err != nil {
		return nil, err
	}
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("dispatch: policy %q needs at least one node, got %d", spec.Policy, spec.Nodes)
	}
	switch spec.Policy {
	case "wrr":
		return policy.NewWRR(spec.Nodes), nil
	case "lard":
		return policy.NewLARD(spec.Nodes, spec.CacheBytes, spec.Params), nil
	case "lardr":
		return policy.NewLARDR(spec.Nodes, spec.CacheBytes, spec.Params), nil
	default: // "extlard"
		return policy.NewExtLARD(spec.Nodes, spec.CacheBytes, spec.Params, spec.Mechanism), nil
	}
}
