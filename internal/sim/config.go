// Package sim implements the trace-driven cluster simulator: an extension of
// the LARD simulator (Pai et al., ASPLOS '98) that models HTTP/1.1
// persistent connections, pipelined request batches, and the five request
// distribution mechanisms of the paper.
//
// Each back-end node has a FIFO CPU, a FIFO disk and a byte-budgeted LRU
// main-memory cache; the front-end has its own CPU running the dispatcher
// and forwarding module. Networks are assumed infinitely fast (as in the
// paper): throughput is limited only by CPU and disk. The request arrival
// rate is matched to the aggregate throughput of the server by keeping a
// fixed number of connections in flight (closed loop); throughput is the
// number of requests served divided by the simulated time to serve them.
package sim

import (
	"fmt"
	"strings"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/policy"
	"phttp/internal/server"
)

// Combo names a (policy, mechanism, workload-flavor) combination as used in
// the paper's figure legends.
type Combo struct {
	// Name is the legend string, e.g. "BEforward-extLARD-PHTTP".
	Name string
	// Policy is one of "wrr", "lard", "extlard".
	Policy string
	// Mechanism is the distribution mechanism the policy drives.
	Mechanism core.Mechanism
	// PHTTP selects the persistent-connection workload; false flattens
	// the trace to HTTP/1.0 (one connection per request).
	PHTTP bool
}

// Combos returns the full set of combinations evaluated in Figures 7 and 8,
// in the paper's legend order, plus the relaying front-end variant discussed
// in Section 6.1.
func Combos() []Combo {
	return []Combo{
		{Name: "zeroCost-extLARD-PHTTP", Policy: "extlard", Mechanism: core.ZeroCostHandoff, PHTTP: true},
		{Name: "multiHandoff-extLARD-PHTTP", Policy: "extlard", Mechanism: core.MultipleHandoff, PHTTP: true},
		{Name: "BEforward-extLARD-PHTTP", Policy: "extlard", Mechanism: core.BEForwarding, PHTTP: true},
		{Name: "simple-LARD", Policy: "lard", Mechanism: core.SingleHandoff, PHTTP: false},
		{Name: "simple-LARD-PHTTP", Policy: "lard", Mechanism: core.SingleHandoff, PHTTP: true},
		{Name: "WRR-PHTTP", Policy: "wrr", Mechanism: core.SingleHandoff, PHTTP: true},
		{Name: "WRR", Policy: "wrr", Mechanism: core.SingleHandoff, PHTTP: false},
	}
}

// ExtraCombos returns the extension combinations beyond the paper's figure
// legends: the Section 6.1 relaying front-end variant and the LARD/R
// (replication) baselines from the ASPLOS '98 companion strategy. They run
// in every driver but are not part of the default figure sweeps.
func ExtraCombos() []Combo {
	return []Combo{
		{Name: "relayFE-extLARD-PHTTP", Policy: "extlard", Mechanism: core.RelayFrontEnd, PHTTP: true},
		{Name: "simple-LARDR", Policy: "lardr", Mechanism: core.SingleHandoff, PHTTP: false},
		{Name: "simple-LARDR-PHTTP", Policy: "lardr", Mechanism: core.SingleHandoff, PHTTP: true},
	}
}

// AllCombos is the one canonical enumeration of every named combination —
// Combos() in legend order followed by ExtraCombos(). Help text, error
// messages and the scenario registry all derive from it, so no combo can
// exist that a listing does not show.
func AllCombos() []Combo {
	return append(Combos(), ExtraCombos()...)
}

// ComboNames returns the names of AllCombos, in order.
func ComboNames() []string {
	all := AllCombos()
	names := make([]string, len(all))
	for i, c := range all {
		names[i] = c.Name
	}
	return names
}

// ComboByName returns the named combination. The error lists every valid
// name (the same canonical set ComboNames reports).
func ComboByName(name string) (Combo, error) {
	for _, c := range AllCombos() {
		if c.Name == name {
			return c, nil
		}
	}
	return Combo{}, fmt.Errorf("sim: unknown combo %q (valid combos: %s)",
		name, strings.Join(ComboNames(), ", "))
}

// ChurnKind classifies a scheduled membership event.
type ChurnKind int

const (
	// ChurnCrash kills a node instantly: its cache restarts cold, its
	// in-flight work is re-dispatched against the retry budget, and the
	// dispatch policies stop placing work on it (the LARD family drops
	// its mappings).
	ChurnCrash ChurnKind = iota
	// ChurnLeave drains a node gracefully: no new placements, existing
	// connections finish.
	ChurnLeave
	// ChurnJoin (re)admits a node as Up.
	ChurnJoin
)

// String returns the schema spelling of the kind ("crash", "leave",
// "join").
func (k ChurnKind) String() string {
	switch k {
	case ChurnCrash:
		return "crash"
	case ChurnLeave:
		return "leave"
	case ChurnJoin:
		return "join"
	}
	return fmt.Sprintf("ChurnKind(%d)", int(k))
}

// ParseChurnKind parses the schema spelling of a churn kind.
func ParseChurnKind(s string) (ChurnKind, error) {
	switch s {
	case "crash":
		return ChurnCrash, nil
	case "leave":
		return ChurnLeave, nil
	case "join":
		return ChurnJoin, nil
	}
	return 0, fmt.Errorf("sim: unknown churn kind %q (valid kinds: crash, leave, join)", s)
}

// ChurnEvent is one scheduled membership transition in a simulation run.
type ChurnEvent struct {
	// At is the simulated time the transition applies. Events at time 0
	// are applied before any connection is admitted, so a node can start
	// a run Down or Draining.
	At core.Micros
	// Kind is the transition.
	Kind ChurnKind
	// Node is the affected back-end.
	Node core.NodeID
}

// Config parameterizes one simulation run.
type Config struct {
	// Nodes is the number of back-end nodes.
	Nodes int
	// Server is the back-end CPU cost model (Apache or Flash).
	Server server.Costs
	// Disk is the per-node disk model.
	Disk server.DiskParams
	// CacheBytes is each back-end's main-memory cache capacity.
	CacheBytes int64
	// Params are the LARD-family policy constants.
	Params policy.Params
	// PolicyOptions are policy options forwarded to dispatch.Build
	// (dispatch.Resolve validates them). They override the typed fields
	// above per key. Nil for the paper's figure configurations.
	PolicyOptions dispatch.Options
	// Combo selects policy, mechanism and workload flavor.
	Combo Combo
	// ConnsPerNode sets the closed-loop concurrency: ConnsPerNode*Nodes
	// connections are kept in flight (saturation without driving every
	// node past L_overload).
	ConnsPerNode int
	// WarmupFrac is the fraction of connections treated as cache warmup;
	// throughput and hit rates are measured after it.
	WarmupFrac float64
	// FESpeedup scales the front-end CPU relative to the back-ends
	// (divides all front-end costs). The relaying-front-end comparison of
	// Section 6.1 posits a front-end powerful enough not to be the
	// bottleneck; 1 means equal hardware.
	FESpeedup float64
	// Churn is the deterministic membership-event schedule. Empty (the
	// paper's figure runs) leaves every down-node check off the event
	// path, so churn-free results are bit-identical to a build without
	// churn support.
	Churn []ChurnEvent
	// RetryBudget caps re-dispatch attempts per request (and per
	// connection open) when the serving node crashes mid-flight; work
	// exceeding it counts as failed and its connection closes — the
	// simulator's analogue of the prototype's connection-close fallback.
	// Only consulted when Churn is non-empty.
	RetryBudget int
	// SLOTarget, when positive, is the per-request delay objective:
	// Result.Latency.SLOViolations counts post-warmup requests slower
	// than it. Zero (the figure configurations) disables the count; the
	// latency histogram itself always records.
	SLOTarget core.Micros

	// Frontends is the scale-out front-end tier size: connections are
	// admitted round-robin across this many front-ends, each with its own
	// CPU and its own dispatch-state view (FEState). 0 or 1 — the paper's
	// figure configurations — is the single front-end whose event
	// sequence is bit-identical to the pre-tier simulator.
	Frontends int
	// FEState selects the dispatch-state backend for the tier
	// (dstate.ModeLocal / ModeSharded / ModeReplicated). The zero value
	// is local, which requires Frontends <= 1.
	FEState dstate.Mode
	// Staleness is the replicated tier's sync interval in simulated time:
	// every Staleness microseconds the front-ends exchange their mapping
	// deltas and load vectors, so each decides on state at most that
	// stale. 0 never syncs (fully independent replicas — the infinite-
	// staleness endpoint of the freshness sweep). Only valid with
	// FEState == dstate.ModeReplicated.
	Staleness core.Micros
}

// DefaultCacheBytes is the simulator's back-end cache size: the paper's
// 128 MB nodes leave about 85 MB of effective file cache.
const DefaultCacheBytes = 85 << 20

// DefaultConfig returns the calibrated configuration for n nodes running
// the given combo with the Apache cost model.
func DefaultConfig(n int, combo Combo) Config {
	return Config{
		Nodes:        n,
		Server:       server.ApacheCosts(),
		Disk:         server.DefaultDisk(),
		CacheBytes:   DefaultCacheBytes,
		Params:       policy.DefaultParams(),
		Combo:        combo,
		ConnsPerNode: 32,
		WarmupFrac:   0.2,
		FESpeedup:    1,
	}
}

// dispatchSpec maps the configuration onto a dispatch.Spec: the same Spec the prototype front-end builds its engine from, so a
// policy/params combination behaves identically in both drivers.
func (c Config) dispatchSpec() dispatch.Spec {
	return dispatch.Spec{
		Policy:     c.Combo.Policy,
		Nodes:      c.Nodes,
		Options:    c.PolicyOptions,
		CacheBytes: c.CacheBytes,
		Params:     c.Params,
		Mechanism:  c.Combo.Mechanism,
	}
}

// buildPolicy instantiates the combo's policy through dispatch.Build.
func (c Config) buildPolicy() (core.Policy, error) {
	return dispatch.Build(c.dispatchSpec())
}

// PolicyName returns the canonical dispatch name of the combo's
// policy, or an error listing the valid names.
func (c Config) PolicyName() (string, error) {
	return dispatch.Canonical(c.Combo.Policy)
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("sim: Nodes must be positive, got %d", c.Nodes)
	}
	if c.CacheBytes <= 0 {
		return fmt.Errorf("sim: CacheBytes must be positive, got %d", c.CacheBytes)
	}
	if c.ConnsPerNode <= 0 {
		return fmt.Errorf("sim: ConnsPerNode must be positive, got %d", c.ConnsPerNode)
	}
	if c.WarmupFrac < 0 || c.WarmupFrac >= 1 {
		return fmt.Errorf("sim: WarmupFrac must be in [0,1), got %g", c.WarmupFrac)
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("sim: RetryBudget must be non-negative, got %d", c.RetryBudget)
	}
	if c.SLOTarget < 0 {
		return fmt.Errorf("sim: SLOTarget must be non-negative, got %d", c.SLOTarget)
	}
	if c.Frontends < 0 {
		return fmt.Errorf("sim: Frontends must be non-negative, got %d", c.Frontends)
	}
	if err := dstate.CheckTier(c.FEState, c.Frontends, c.Combo.Mechanism); err != nil {
		return err
	}
	if c.Staleness < 0 {
		return fmt.Errorf("sim: Staleness must be non-negative, got %d", c.Staleness)
	}
	if c.Staleness > 0 && c.FEState != dstate.ModeReplicated {
		return fmt.Errorf("sim: Staleness is the replicated sync interval; FEState is %v", c.FEState)
	}
	for i, ev := range c.Churn {
		if ev.At < 0 {
			return fmt.Errorf("sim: churn event %d: time must be non-negative, got %d", i, ev.At)
		}
		if ev.Kind != ChurnCrash && ev.Kind != ChurnLeave && ev.Kind != ChurnJoin {
			return fmt.Errorf("sim: churn event %d: invalid kind %d", i, int(ev.Kind))
		}
		if int(ev.Node) < 0 || int(ev.Node) >= c.Nodes {
			return fmt.Errorf("sim: churn event %d: node %d out of range [0,%d)", i, ev.Node, c.Nodes)
		}
	}
	if _, err := c.buildPolicy(); err != nil {
		return err
	}
	return nil
}
