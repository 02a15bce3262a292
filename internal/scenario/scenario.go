// Package scenario is the declarative experiment layer: one versioned JSON
// spec describes workload, policy, mechanism, cluster shape, server cost
// model and sweep axes, and compiles to the configuration of every driver —
// the trace-driven simulator (ToSimGrid / ToSimConfig), the networked
// prototype (ToClusterConfig, ToFrontEndConfig, PrototypeGrid) and the
// load generator (ToLoadgenConfig). It is the one way every binary is
// told what to run: a scenario plus -set key=value overrides (Flags,
// Spec.With). The paper's figure experiments ship as embedded named
// scenarios (Builtin("fig7")) — the only definition of those grids, their
// output pinned by golden tables in cmd/phttp-sim/testdata — and the same
// file that drives a simulation drives the prototype: the acceptance
// property of the paper's "one policy, two drivers" design, extended to
// whole experiments.
//
// The JSON schema (version 1) is documented field by field in DESIGN.md
// §13.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/trace"
)

// SpecVersion is the schema version this package reads and writes.
const SpecVersion = 1

// Spec is one declarative experiment: the unit of Load/Parse/Validate and
// the source every To*Config compiler reads.
type Spec struct {
	// Version is the schema version; must be SpecVersion.
	Version int `json:"version"`
	// Name identifies the scenario in listings and output headers.
	Name string `json:"name,omitempty"`
	// Doc is a one-line description.
	Doc string `json:"doc,omitempty"`
	// Workload selects the request trace.
	Workload WorkloadSpec `json:"workload"`
	// Policy selects the dispatch policy; unused (and disallowed) when
	// Sweep.Combos names legacy combinations instead.
	Policy PolicySpec `json:"policy,omitempty"`
	// Mechanism is the distribution mechanism name (core.ParseMechanism);
	// empty means singleHandoff.
	Mechanism string `json:"mechanism,omitempty"`
	// Cluster shapes the cluster under test.
	Cluster ClusterSpec `json:"cluster,omitempty"`
	// Server selects the back-end CPU cost model.
	Server ServerSpec `json:"server,omitempty"`
	// Sweep, when present, turns the scenario into a grid of runs.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Churn, when present, schedules deterministic membership events
	// (crash/leave/join) into every simulated grid point. Simulator-only:
	// the prototype compilers reject it — live clusters churn through
	// real crashes and the front-end's admin surface, not a schedule.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// SLO, when present, turns the scenario into a pass/fail gate: every
	// simulated grid point must hold the tail-latency objective.
	// Simulated delays are deterministic per (workload, config), so an
	// SLO-gated scenario is a reproducible regression test, not a flaky
	// wall-clock assertion.
	SLO *SLOSpec `json:"slo,omitempty"`
}

// WorkloadSpec selects the request trace: the synthetic generator's
// configuration, from which the trace is regenerated on every run. HTTP10
// flattens the trace to one request per connection.
type WorkloadSpec struct {
	// Synth overrides the synthetic generator's defaults.
	Synth *SynthSpec `json:"synth,omitempty"`
	// HTTP10 flattens the trace to HTTP/1.0 (one request per connection).
	HTTP10 bool `json:"http10,omitempty"`
}

// SynthSpec overrides the synthetic workload generator's calibrated
// defaults (trace.DefaultSynthConfig); zero fields keep the default.
type SynthSpec struct {
	Seed        uint64 `json:"seed,omitempty"`
	Connections int    `json:"connections,omitempty"`
	Pages       int    `json:"pages,omitempty"`
	Objects     int    `json:"objects,omitempty"`
	Clients     int    `json:"clients,omitempty"`
}

// PolicySpec names a dispatch policy and its options.
type PolicySpec struct {
	// Name is a dispatch policy name (dispatch.Names).
	Name string `json:"name,omitempty"`
	// Label overrides the series label derived from name and workload
	// flavor (the figure legends' "single-node" style).
	Label string `json:"label,omitempty"`
	// Options are policy construction options, validated against the
	// LARD family's option keys (dispatch.Resolve). The "mechanism" key
	// is disallowed here: the top-level Mechanism field is the one source,
	// so the policy's view and the forwarding module's wire behavior
	// cannot diverge.
	Options map[string]any `json:"options,omitempty"`
}

// ClusterSpec shapes the cluster under test. Zero fields keep each
// driver's calibrated default.
type ClusterSpec struct {
	// Nodes is the number of back-end nodes (ignored by node-axis sweeps).
	Nodes int `json:"nodes,omitempty"`
	// ConnsPerNode is the simulator's closed-loop concurrency per node
	// (default 32).
	ConnsPerNode int `json:"connsPerNode,omitempty"`
	// CacheMB is the per-node cache budget in MB (simulator default 85,
	// prototype default 60).
	CacheMB int64 `json:"cacheMB,omitempty"`
	// WarmupFrac is the fraction of connections treated as warmup
	// (default 0.2); pointer so an explicit 0 is distinguishable.
	WarmupFrac *float64 `json:"warmupFrac,omitempty"`
	// FESpeedup scales the simulated front-end CPU (default 1).
	FESpeedup float64 `json:"feSpeedup,omitempty"`
	// MaxTargets caps the prototype dispatcher's target interner: targets
	// first seen past the cap are placed by load and never mapped (0 means
	// no cap).
	MaxTargets int `json:"maxTargets,omitempty"`
	// TimeScale divides the prototype's simulated latencies (default 1).
	TimeScale float64 `json:"timeScale,omitempty"`
	// Clients is the load generator's concurrency (default: loadgen's).
	Clients int `json:"clients,omitempty"`

	// Frontends is the size of the scale-out front-end tier (0 or 1 =
	// the paper's single front-end; > 1 requires a sharded or replicated
	// state backend).
	Frontends int `json:"frontends,omitempty"`
	// State selects the dispatch-state backend: "local" (default),
	// "sharded" (target space partitioned across the tier) or
	// "replicated" (full replicas with bounded-staleness sync). See
	// DESIGN.md §17.
	State string `json:"state,omitempty"`
	// StalenessMs is the replicated backend's sync interval in
	// milliseconds (simulated time in the simulator, wall clock in the
	// prototype). 0 with a replicated backend means the replicas never
	// sync — the infinite-staleness endpoint of the freshness curve, which
	// only the simulator runs.
	StalenessMs float64 `json:"stalenessMs,omitempty"`

	// RetryBudget caps re-dispatch attempts per request (and per
	// connection open) after its node is lost, in both worlds; work
	// exceeding it fails and its connection closes. Pointer so an
	// explicit 0 (fail on first loss) is distinguishable from the
	// default (cluster.DefaultRetryBudget).
	RetryBudget *int `json:"retryBudget,omitempty"`
}

// ChurnSpec schedules deterministic membership events into a simulated
// run: the simulator applies each transition at its scheduled time and
// re-dispatches in-flight work off crashed nodes within the retry
// budget. Results stay bit-reproducible — the schedule is part of the
// configuration, not a random process.
type ChurnSpec struct {
	// Events is the membership-event schedule; at least one is required.
	// Re-dispatch is bounded by cluster.retryBudget.
	Events []ChurnEventSpec `json:"events"`
}

// ChurnEventSpec is one scheduled membership transition.
type ChurnEventSpec struct {
	// AtMs is the simulated time of the transition in milliseconds.
	// Time 0 applies before any connection is admitted (a node can start
	// the run down).
	AtMs float64 `json:"atMs"`
	// Kind is "crash" (node dies, cache restarts cold, in-flight work
	// re-dispatched), "leave" (graceful drain) or "join" ((re)admission).
	Kind string `json:"kind"`
	// Node is the affected back-end index.
	Node int `json:"node"`
}

// SLOSpec is a per-request tail-latency objective. A grid point passes
// when its post-warmup p99 delay is at or under P99Ms and at most
// MaxViolations requests exceeded the objective; the scenario passes
// when every point does.
type SLOSpec struct {
	// P99Ms is the p99 per-request delay objective in milliseconds
	// (batch arrival at the front-end to transmit completion, the same
	// delay Figure 3 plots). Required, positive.
	P99Ms float64 `json:"p99Ms"`
	// MaxViolations is the number of post-warmup requests allowed over
	// the objective before the point fails (0 = the p99 bound alone
	// decides; by construction at most 1% of requests sit above a
	// holding p99).
	MaxViolations int64 `json:"maxViolations,omitempty"`
}

// Target is the objective as simulator time.
func (o *SLOSpec) Target() core.Micros {
	return core.Micros(o.P99Ms * float64(core.Millisecond))
}

// ServerSpec selects the back-end CPU cost model.
type ServerSpec struct {
	// Model is "apache" (default) or "flash".
	Model string `json:"model,omitempty"`
}

// SweepSpec turns a scenario into a grid. Exactly one axis family applies:
// Combos×Nodes (the paper's cluster-size figures) or Loads (the offered-
// load delay figure); Nodes alone sweeps cluster sizes for the scenario's
// own policy.
type SweepSpec struct {
	// Nodes is the cluster-size axis.
	Nodes []int `json:"nodes,omitempty"`
	// Combos names legacy policy/mechanism/workload combinations
	// (sim.ComboNames) to sweep over Nodes.
	Combos []string `json:"combos,omitempty"`
	// Loads is the offered-load axis (connections in flight), run at
	// Cluster.Nodes (default 1).
	Loads []int `json:"loads,omitempty"`
	// Frontends is the front-end-tier-size axis, run at Cluster.Nodes
	// with Cluster.State's backend (which must be sharded or
	// replicated) — the locality-degradation curve of DESIGN.md §17.
	Frontends []int `json:"frontends,omitempty"`
	// StalenessMs is the replication-staleness axis in milliseconds, run
	// at Cluster.Frontends replicas (cluster.state must be
	// "replicated"). A 0 entry is the never-sync endpoint.
	StalenessMs []float64 `json:"stalenessMs,omitempty"`
}

// Parse decodes and validates a scenario spec. Unknown fields are errors:
// a misspelled key must fail loudly, not silently fall back to a default.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	var s Spec
	if err := decodeStrict(dec, &s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Content after the spec object (a stray brace, a concatenated second
	// object from a botched merge) is as much an error as an unknown
	// field: the file would otherwise run a possibly-wrong experiment.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing content after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// decodeStrict decodes the next JSON value of dec into s, refusing every
// key that is not a field's own spelling: an unknown key, and one that
// encoding/json, matching case-insensitively, would take for a field
// ("cacheMb" for cacheMB).
func decodeStrict(dec *json.Decoder, s *Spec) error {
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	var obj any
	if err := json.Unmarshal(raw, &obj); err != nil {
		return err
	}
	if err := checkKeys(obj, reflect.TypeOf(s).Elem(), ""); err != nil {
		return err
	}
	strict := json.NewDecoder(bytes.NewReader(raw))
	strict.DisallowUnknownFields()
	return strict.Decode(s)
}

// checkKeys walks JSON value v against type t and reports the first key,
// in sorted order, that names one of t's fields only when case is ignored.
// Keys of a map field (policy.options) are data, not schema; a key that
// names no field at all is left to the decoder's unknown-field error.
func checkKeys(v any, t reflect.Type, path string) error {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Struct:
		obj, _ := v.(map[string]any)
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				if tag == k {
					if err := checkKeys(obj[k], f.Type, path+k+"."); err != nil {
						return err
					}
				} else if strings.EqualFold(tag, k) {
					return fmt.Errorf("json: unknown field %q: the key is %q (keys match case-sensitively)", path+k, path+tag)
				}
			}
		}
	case reflect.Slice:
		arr, _ := v.([]any)
		for i, e := range arr {
			if err := checkKeys(e, t.Elem(), fmt.Sprintf("%s%d.", path, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %s", path, strings.TrimPrefix(err.Error(), "scenario: "))
	}
	return s, nil
}

// Validate checks the spec against the schema: version, policy name and
// options (via dispatch.Resolve), mechanism and server names, sweep
// axis consistency, and numeric ranges.
func (s *Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("scenario: unsupported version %d (want %d)", s.Version, SpecVersion)
	}
	if _, err := s.ServerKind(); err != nil {
		return err
	}
	if _, err := s.mechanism(); err != nil {
		return err
	}

	combosSweep := s.Sweep != nil && len(s.Sweep.Combos) > 0
	if combosSweep {
		if s.Policy.Name != "" || len(s.Policy.Options) > 0 {
			return fmt.Errorf("scenario: sweep.combos and policy are mutually exclusive (combos carry their own policies)")
		}
		// Each combo carries its own mechanism and workload flavor, so a
		// top-level mechanism or http10 flag would be silently ignored —
		// reject it rather than run a different experiment than written.
		if s.Mechanism != "" {
			return fmt.Errorf("scenario: sweep.combos and mechanism are mutually exclusive (combos carry their own mechanisms)")
		}
		if s.Workload.HTTP10 {
			return fmt.Errorf("scenario: sweep.combos and workload.http10 are mutually exclusive (combos carry their own workload flavor)")
		}
		if len(s.Sweep.Loads) > 0 {
			return fmt.Errorf("scenario: sweep.combos and sweep.loads are mutually exclusive")
		}
		if len(s.Sweep.Frontends) > 0 || len(s.Sweep.StalenessMs) > 0 {
			return fmt.Errorf("scenario: sweep.combos cannot carry front-end-tier axes (name the policy directly)")
		}
		if len(s.Sweep.Nodes) == 0 {
			return fmt.Errorf("scenario: sweep.combos needs a sweep.nodes axis")
		}
		for _, name := range s.Sweep.Combos {
			if _, err := simComboByName(name); err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
		}
	} else {
		if s.Policy.Name == "" {
			return fmt.Errorf("scenario: policy.name is required (or name legacy combos in sweep.combos)")
		}
		if _, ok := s.Policy.Options["mechanism"]; ok {
			return fmt.Errorf("scenario: set the top-level mechanism field, not policy.options[\"mechanism\"]")
		}
		if _, err := dispatch.Resolve(dispatch.Spec{
			Policy:  s.Policy.Name,
			Options: dispatch.Options(s.Policy.Options),
		}); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	mode, err := s.StateMode()
	if err != nil {
		return err
	}
	if s.Sweep != nil {
		if len(s.Sweep.Loads) > 0 && len(s.Sweep.Nodes) > 0 {
			return fmt.Errorf("scenario: sweep.loads and sweep.nodes are mutually exclusive")
		}
		if len(s.Sweep.Frontends) > 0 && (len(s.Sweep.Nodes) > 0 || len(s.Sweep.Loads) > 0 || len(s.Sweep.StalenessMs) > 0) {
			return fmt.Errorf("scenario: sweep.frontends is its own axis (exclusive with nodes, loads and stalenessMs)")
		}
		if len(s.Sweep.StalenessMs) > 0 && (len(s.Sweep.Nodes) > 0 || len(s.Sweep.Loads) > 0) {
			return fmt.Errorf("scenario: sweep.stalenessMs is its own axis (exclusive with nodes and loads)")
		}
		for _, n := range s.Sweep.Nodes {
			if n <= 0 {
				return fmt.Errorf("scenario: sweep.nodes entry %d must be positive", n)
			}
		}
		for _, l := range s.Sweep.Loads {
			if l <= 0 {
				return fmt.Errorf("scenario: sweep.loads entry %d must be positive", l)
			}
		}
		for _, f := range s.Sweep.Frontends {
			if f <= 0 {
				return fmt.Errorf("scenario: sweep.frontends entry %d must be positive", f)
			}
		}
		for _, ms := range s.Sweep.StalenessMs {
			if ms < 0 {
				return fmt.Errorf("scenario: sweep.stalenessMs entry %g must be non-negative", ms)
			}
		}
		if len(s.Sweep.Frontends) > 0 && mode == dstate.ModeLocal {
			return fmt.Errorf("scenario: sweep.frontends needs cluster.state sharded or replicated")
		}
		if len(s.Sweep.StalenessMs) > 0 && mode != dstate.ModeReplicated {
			return fmt.Errorf("scenario: sweep.stalenessMs needs cluster.state replicated")
		}
		if len(s.Sweep.StalenessMs) > 0 && s.Cluster.Frontends < 2 {
			return fmt.Errorf("scenario: sweep.stalenessMs needs cluster.frontends >= 2 (one replica has nothing to sync)")
		}
	}
	nodeAxis := s.Sweep != nil && len(s.Sweep.Nodes) > 0
	if !nodeAxis && s.Cluster.Nodes <= 0 {
		return fmt.Errorf("scenario: cluster.nodes is required without a sweep.nodes axis")
	}
	c := s.Cluster
	if c.Nodes < 0 || c.ConnsPerNode < 0 || c.CacheMB < 0 || c.MaxTargets < 0 || c.Clients < 0 {
		return fmt.Errorf("scenario: negative cluster dimension")
	}
	if c.WarmupFrac != nil && (*c.WarmupFrac < 0 || *c.WarmupFrac >= 1) {
		return fmt.Errorf("scenario: cluster.warmupFrac must be in [0,1), got %g", *c.WarmupFrac)
	}
	if c.FESpeedup < 0 || c.TimeScale < 0 {
		return fmt.Errorf("scenario: negative cluster scale factor")
	}
	if c.Frontends < 0 {
		return fmt.Errorf("scenario: cluster.frontends must be non-negative, got %d", c.Frontends)
	}
	if c.StalenessMs < 0 {
		return fmt.Errorf("scenario: cluster.stalenessMs must be non-negative, got %g", c.StalenessMs)
	}
	if c.Frontends > 1 && mode == dstate.ModeLocal {
		return fmt.Errorf("scenario: cluster.frontends %d needs cluster.state sharded or replicated (local state has one owner)", c.Frontends)
	}
	if c.StalenessMs > 0 && mode != dstate.ModeReplicated {
		return fmt.Errorf("scenario: cluster.stalenessMs applies to the replicated state backend only")
	}
	if c.RetryBudget != nil && *c.RetryBudget < 0 {
		return fmt.Errorf("scenario: cluster.retryBudget must be non-negative, got %d", *c.RetryBudget)
	}
	if err := s.checkTier(mode); err != nil {
		return err
	}
	w := s.Workload.Synth
	if w != nil && (w.Connections < 0 || w.Pages < 0 || w.Objects < 0 || w.Clients < 0) {
		return fmt.Errorf("scenario: negative workload dimension")
	}
	if ch := s.Churn; ch != nil {
		if len(ch.Events) == 0 {
			return fmt.Errorf("scenario: churn.events is empty")
		}
		// The schedule is shared by every grid point, so each event's
		// node must exist in the smallest swept cluster.
		minNodes := s.Cluster.Nodes
		if s.Sweep != nil && len(s.Sweep.Nodes) > 0 {
			minNodes = s.Sweep.Nodes[0]
			for _, n := range s.Sweep.Nodes[1:] {
				if n < minNodes {
					minNodes = n
				}
			}
		}
		for i, ev := range ch.Events {
			if ev.AtMs < 0 {
				return fmt.Errorf("scenario: churn event %d: atMs must be non-negative, got %g", i, ev.AtMs)
			}
			if _, err := parseChurnKind(ev.Kind); err != nil {
				return fmt.Errorf("scenario: churn event %d: %w", i, err)
			}
			if ev.Node < 0 || ev.Node >= minNodes {
				return fmt.Errorf("scenario: churn event %d: node %d out of range for the smallest cluster in the grid (%d nodes)", i, ev.Node, minNodes)
			}
		}
	}
	if o := s.SLO; o != nil {
		if o.P99Ms <= 0 {
			return fmt.Errorf("scenario: slo.p99Ms must be positive, got %g", o.P99Ms)
		}
		if o.MaxViolations < 0 {
			return fmt.Errorf("scenario: slo.maxViolations must be non-negative, got %d", o.MaxViolations)
		}
	}
	return nil
}

// checkTier applies the one tier rule (dstate.CheckTier) to every tier the
// spec runs: the cluster's, or each sweep.frontends entry's, under the
// spec's mechanism or each combo's. It runs in Validate, so a tier no
// world can run fails before a trace is built.
func (s *Spec) checkTier(mode dstate.Mode) error {
	key, tiers := "cluster.frontends", []int{s.Cluster.Frontends}
	if s.Sweep != nil && len(s.Sweep.Frontends) > 0 {
		key, tiers = "sweep.frontends", s.Sweep.Frontends
	}
	var mechs []core.Mechanism
	if s.Sweep != nil && len(s.Sweep.Combos) > 0 {
		for _, name := range s.Sweep.Combos {
			c, _ := simComboByName(name) // Validate checked the names
			mechs = append(mechs, c.Mechanism)
		}
	} else {
		m, _ := s.mechanism() // Validate checked it
		mechs = append(mechs, m)
	}
	for _, fes := range tiers {
		for _, m := range mechs {
			if err := dstate.CheckTier(mode, fes, m); err != nil {
				return fmt.Errorf("scenario: %s %d with cluster.state %q: %w", key, fes, s.Cluster.State, err)
			}
		}
	}
	return nil
}

// StateMode resolves the cluster's dispatch-state backend (empty =
// local, the paper's single front-end).
func (s *Spec) StateMode() (dstate.Mode, error) {
	m, err := dstate.ParseMode(strings.ToLower(strings.TrimSpace(s.Cluster.State)))
	if err != nil {
		return 0, fmt.Errorf("scenario: %w", err)
	}
	return m, nil
}

// mechanism resolves the mechanism field (empty = singleHandoff).
func (s *Spec) mechanism() (core.Mechanism, error) {
	if s.Mechanism == "" {
		return core.SingleHandoff, nil
	}
	m, err := core.ParseMechanism(s.Mechanism)
	if err != nil {
		return 0, fmt.Errorf("scenario: %w", err)
	}
	return m, nil
}

// ServerKind resolves the server model (empty = apache).
func (s *Spec) ServerKind() (core.ServerKind, error) {
	switch strings.ToLower(strings.TrimSpace(s.Server.Model)) {
	case "", "apache":
		return core.Apache, nil
	case "flash":
		return core.Flash, nil
	}
	return 0, fmt.Errorf("scenario: unknown server model %q (want apache or flash)", s.Server.Model)
}

// SynthConfig returns the workload generator configuration: the calibrated
// defaults with the spec's synth overrides applied.
func (s *Spec) SynthConfig() trace.SynthConfig {
	cfg := trace.DefaultSynthConfig()
	if w := s.Workload.Synth; w != nil {
		if w.Seed != 0 {
			cfg.Seed = w.Seed
		}
		if w.Connections > 0 {
			cfg.Connections = w.Connections
		}
		if w.Pages > 0 {
			cfg.Pages = w.Pages
		}
		if w.Objects > 0 {
			cfg.Objects = w.Objects
		}
		if w.Clients > 0 {
			cfg.Clients = w.Clients
		}
	}
	return cfg
}

// LoadWorkload materializes the scenario's workload: a fresh synthetic
// generation from its config.
func (s *Spec) LoadWorkload() *trace.Workload {
	return trace.NewWorkload(trace.NewSynth(s.SynthConfig()).Generate())
}

// Label is the series label for policy-driven scenarios: the explicit
// Label, or "<policy>[-PHTTP]" in the figure legends' style.
func (s *Spec) Label() string {
	if s.Policy.Label != "" {
		return s.Policy.Label
	}
	if s.Workload.HTTP10 {
		return s.Policy.Name
	}
	return s.Policy.Name + "-PHTTP"
}
