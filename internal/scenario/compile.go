package scenario

import (
	"fmt"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/loadgen"
	"phttp/internal/server"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

// simComboByName resolves a legacy combo name through the simulator's
// canonical listing (sim.AllCombos).
func simComboByName(name string) (sim.Combo, error) { return sim.ComboByName(name) }

// parseChurnKind resolves a churn kind through the simulator's schema
// spelling ("crash", "leave", "join").
func parseChurnKind(s string) (sim.ChurnKind, error) { return sim.ParseChurnKind(s) }

// compile lowers the validated schedule to the simulator's event list.
func (c *ChurnSpec) compile() []sim.ChurnEvent {
	evs := make([]sim.ChurnEvent, len(c.Events))
	for i, e := range c.Events {
		k, _ := parseChurnKind(e.Kind)
		evs[i] = sim.ChurnEvent{
			At:   core.Micros(e.AtMs * 1000),
			Kind: k,
			Node: core.NodeID(e.Node),
		}
	}
	return evs
}

// retryBudget resolves the re-dispatch budget (default
// cluster.DefaultRetryBudget, the same in both worlds).
func (c *ClusterSpec) retryBudget() int {
	if c.RetryBudget != nil {
		return *c.RetryBudget
	}
	return cluster.DefaultRetryBudget
}

// SimPoint is one grid point of a compiled simulation scenario: the series
// label, the x-axis value (cluster size, or offered load for a loads
// sweep) and the fully resolved simulator configuration.
type SimPoint struct {
	Label  string
	X      float64
	Config sim.Config
}

// combo builds the sim.Combo for a policy-driven scenario.
func (s *Spec) combo() (sim.Combo, error) {
	mech, err := s.mechanism()
	if err != nil {
		return sim.Combo{}, err
	}
	return sim.Combo{
		Name:      s.Label(),
		Policy:    s.Policy.Name,
		Mechanism: mech,
		PHTTP:     !s.Workload.HTTP10,
	}, nil
}

// simBase compiles one (nodes, combo) pair: the simulator's calibrated
// defaults with the scenario's server model, cluster overrides and policy
// options applied. The zero ClusterSpec compiles to exactly
// sim.DefaultConfig, the configuration the figure goldens
// (cmd/phttp-sim/testdata) were recorded with.
func (s *Spec) simBase(nodes int, combo sim.Combo, kind core.ServerKind) sim.Config {
	cfg := sim.DefaultConfig(nodes, combo)
	cfg.Server = server.CostsFor(kind)
	if s.Cluster.ConnsPerNode > 0 {
		cfg.ConnsPerNode = s.Cluster.ConnsPerNode
	}
	if s.Cluster.CacheMB > 0 {
		cfg.CacheBytes = s.Cluster.CacheMB << 20
	}
	if s.Cluster.WarmupFrac != nil {
		cfg.WarmupFrac = *s.Cluster.WarmupFrac
	}
	if s.Cluster.FESpeedup > 0 {
		cfg.FESpeedup = s.Cluster.FESpeedup
	}
	if len(s.Policy.Options) > 0 {
		cfg.PolicyOptions = dispatch.Options(s.Policy.Options)
	}
	// Churn-free scenarios leave both fields zero, keeping the compiled
	// config sim.DefaultConfig's: without a schedule no simulated node is
	// lost, so the budget has nothing to bound.
	if s.Churn != nil {
		cfg.Churn = s.Churn.compile()
		cfg.RetryBudget = s.Cluster.retryBudget()
	}
	// Likewise zero without an slo block, for the same golden guarantee.
	if s.SLO != nil {
		cfg.SLOTarget = s.SLO.Target()
	}
	// Front-end-tier fields: all zero for single-front-end scenarios, so
	// the compiled config stays sim.DefaultConfig's.
	if s.Cluster.Frontends > 1 {
		cfg.Frontends = s.Cluster.Frontends
	}
	mode, _ := s.StateMode() // validated above
	if mode != dstate.ModeLocal {
		cfg.FEState = mode
	}
	if s.Cluster.StalenessMs > 0 {
		cfg.Staleness = core.Micros(s.Cluster.StalenessMs * float64(core.Millisecond))
	}
	return cfg
}

// ToSimGrid compiles the scenario to its full simulation grid: one point
// per (series, axis value). Single-run scenarios compile to a one-point
// grid.
func (s *Spec) ToSimGrid() ([]SimPoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	kind, err := s.ServerKind()
	if err != nil {
		return nil, err
	}
	var points []SimPoint
	switch {
	case s.Sweep != nil && len(s.Sweep.Combos) > 0:
		for _, name := range s.Sweep.Combos {
			combo, err := simComboByName(name)
			if err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
			for _, n := range s.Sweep.Nodes {
				points = append(points, SimPoint{
					Label: combo.Name, X: float64(n), Config: s.simBase(n, combo, kind),
				})
			}
		}
	case s.Sweep != nil && len(s.Sweep.Frontends) > 0:
		combo, err := s.combo()
		if err != nil {
			return nil, err
		}
		// A 1-front-end point still runs the swept backend (a tier of
		// one) — the baseline of the locality-degradation curve.
		for _, f := range s.Sweep.Frontends {
			cfg := s.simBase(s.Cluster.Nodes, combo, kind)
			cfg.Frontends = f
			points = append(points, SimPoint{Label: combo.Name, X: float64(f), Config: cfg})
		}
	case s.Sweep != nil && len(s.Sweep.StalenessMs) > 0:
		combo, err := s.combo()
		if err != nil {
			return nil, err
		}
		for _, ms := range s.Sweep.StalenessMs {
			cfg := s.simBase(s.Cluster.Nodes, combo, kind)
			cfg.Frontends = s.Cluster.Frontends
			cfg.Staleness = core.Micros(ms * float64(core.Millisecond))
			points = append(points, SimPoint{Label: combo.Name, X: ms, Config: cfg})
		}
	case s.Sweep != nil && len(s.Sweep.Loads) > 0:
		combo, err := s.combo()
		if err != nil {
			return nil, err
		}
		nodes := s.Cluster.Nodes
		for _, l := range s.Sweep.Loads {
			cfg := s.simBase(nodes, combo, kind)
			cfg.ConnsPerNode = l
			points = append(points, SimPoint{Label: combo.Name, X: float64(l), Config: cfg})
		}
	case s.Sweep != nil && len(s.Sweep.Nodes) > 0:
		combo, err := s.combo()
		if err != nil {
			return nil, err
		}
		for _, n := range s.Sweep.Nodes {
			points = append(points, SimPoint{
				Label: combo.Name, X: float64(n), Config: s.simBase(n, combo, kind),
			})
		}
	default:
		combo, err := s.combo()
		if err != nil {
			return nil, err
		}
		points = append(points, SimPoint{
			Label: combo.Name, X: float64(s.Cluster.Nodes),
			Config: s.simBase(s.Cluster.Nodes, combo, kind),
		})
	}
	return points, nil
}

// ToSimConfig compiles a single-run scenario. Scenarios that define a
// sweep are grids; use ToSimGrid for those.
func (s *Spec) ToSimConfig() (sim.Config, error) {
	points, err := s.ToSimGrid()
	if err != nil {
		return sim.Config{}, err
	}
	if len(points) != 1 {
		return sim.Config{}, fmt.Errorf("scenario: %q compiles to a %d-point grid; use ToSimGrid", s.Name, len(points))
	}
	return points[0].Config, nil
}

// LoadsSweep reports whether the scenario sweeps offered load (the
// Figure 3 axis) and returns the load points.
func (s *Spec) LoadsSweep() ([]int, bool) {
	if s.Sweep == nil || len(s.Sweep.Loads) == 0 {
		return nil, false
	}
	return s.Sweep.Loads, true
}

// ToClusterConfig compiles a one-point scenario for the prototype over
// the given catalog: the in-process cluster (cluster.Start), and through
// Config.FrontEnd and Config.Backend the standalone front-end and
// back-end processes. The tier keys carry over with cluster.stalenessMs
// as the wall-clock sync interval; churn schedules, combos sweeps,
// simulator-only mechanisms and never-synced replicas are refused.
func (s *Spec) ToClusterConfig(catalog map[core.Target]int64) (cluster.Config, error) {
	if err := s.Validate(); err != nil {
		return cluster.Config{}, err
	}
	if s.Policy.Name == "" {
		return cluster.Config{}, fmt.Errorf("scenario: prototype compilation needs policy.name (expand a combos sweep with PrototypeGrid)")
	}
	if s.Churn != nil {
		return cluster.Config{}, fmt.Errorf("scenario: churn schedules are simulator-only; churn a prototype cluster through the front-end's admin surface")
	}
	mech, err := s.mechanism()
	if err != nil {
		return cluster.Config{}, err
	}
	if !cluster.Runs(mech) {
		return cluster.Config{}, fmt.Errorf("scenario: the prototype does not run mechanism %v (simulator only)", mech)
	}
	kind, err := s.ServerKind()
	if err != nil {
		return cluster.Config{}, err
	}
	mode, err := s.StateMode()
	if err != nil {
		return cluster.Config{}, err
	}
	if mode == dstate.ModeReplicated && s.Cluster.StalenessMs == 0 {
		return cluster.Config{}, fmt.Errorf("scenario: replicated state with cluster.stalenessMs 0 never syncs, which only the simulator runs; give the prototype a sync interval")
	}
	if s.Cluster.Nodes <= 0 {
		return cluster.Config{}, fmt.Errorf("scenario: prototype compilation needs cluster.nodes")
	}
	cfg := cluster.DefaultConfig(s.Cluster.Nodes, catalog)
	cfg.Policy = s.Policy.Name
	cfg.PolicyOptions = dispatch.Options(s.Policy.Options)
	cfg.Mechanism = mech
	cfg.Costs = server.CostsFor(kind)
	if s.Cluster.CacheMB > 0 {
		cfg.CacheBytes = s.Cluster.CacheMB << 20
	}
	cfg.MaxTargets = s.Cluster.MaxTargets
	if s.Cluster.TimeScale > 0 {
		cfg.TimeScale = s.Cluster.TimeScale
	}
	cfg.RetryBudget = s.Cluster.retryBudget()
	cfg.Frontends = s.Cluster.Frontends
	cfg.State = mode
	cfg.SyncInterval = time.Duration(s.Cluster.StalenessMs * float64(time.Millisecond))
	return cfg, nil
}

// ToFrontEndConfig compiles the scenario for member fe of a standalone
// front-end tier over nodes back-ends (phttp-frontend): ToClusterConfig
// projected through Config.FrontEnd, as cluster.Start projects each of its
// members. The back-end count comes from the caller's -backend flags —
// the scenario describes the experiment, the flags where the processes
// live.
func (s *Spec) ToFrontEndConfig(nodes, fe int) (cluster.FrontEndConfig, error) {
	at := *s
	at.Cluster.Nodes = nodes
	cfg, err := at.ToClusterConfig(nil)
	if err != nil {
		return cluster.FrontEndConfig{}, err
	}
	return cfg.FrontEnd(fe), nil
}

// PrototypeGrid expands the scenario's node axis into one one-point spec
// per prototype run, in ToSimGrid's order: each combo of a combos sweep
// becomes its policy, mechanism, HTTP flavor and label. The other axes
// are the simulator's alone.
func (s *Spec) PrototypeGrid() ([]*Spec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sw := s.Sweep
	if sw != nil && (len(sw.Loads) > 0 || len(sw.Frontends) > 0 || len(sw.StalenessMs) > 0) {
		return nil, fmt.Errorf("scenario: the prototype runs node-axis grids only (loads, frontends and stalenessMs sweeps are simulator-only)")
	}
	nodes := []int{s.Cluster.Nodes}
	if sw != nil && len(sw.Nodes) > 0 {
		nodes = sw.Nodes
	}
	series := []Spec{*s}
	if sw != nil && len(sw.Combos) > 0 {
		series = series[:0]
		for _, name := range sw.Combos {
			c, err := simComboByName(name)
			if err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
			p := *s
			p.Policy = PolicySpec{Name: c.Policy, Label: c.Name}
			p.Mechanism = c.Mechanism.String()
			p.Workload.HTTP10 = !c.PHTTP
			series = append(series, p)
		}
	}
	var points []*Spec
	for _, p := range series {
		for _, n := range nodes {
			pt := p
			pt.Sweep = nil
			pt.Cluster.Nodes = n
			points = append(points, &pt)
		}
	}
	return points, nil
}

// ToLoadgenConfig compiles the scenario for the load generator replaying
// the given workload against addr; loadgen.Run flattens it for HTTP/1.0
// scenarios.
func (s *Spec) ToLoadgenConfig(addr string, wl *trace.Workload) (loadgen.Config, error) {
	if err := s.Validate(); err != nil {
		return loadgen.Config{}, err
	}
	cfg := loadgen.Config{
		Addr:        addr,
		Trace:       wl.PHTTP,
		HTTP10:      s.Workload.HTTP10,
		Concurrency: s.Cluster.Clients,
		WarmupFrac:  0.2,
		Verify:      true,
	}
	if s.Cluster.WarmupFrac != nil {
		cfg.WarmupFrac = *s.Cluster.WarmupFrac
	}
	return cfg, nil
}
