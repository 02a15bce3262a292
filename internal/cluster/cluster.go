package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/policy"
	"phttp/internal/server"
)

// Config describes a whole prototype cluster (front-end plus back-ends) for
// the in-process harness used by tests, benchmarks and the example
// programs. The standalone binaries (cmd/phttp-frontend, cmd/phttp-backend)
// assemble the same pieces across processes.
type Config struct {
	Nodes  int
	Policy string // dispatch registry name (see dispatch.Names)
	// PolicyOptions are generic policy options forwarded to the dispatch
	// registry (see FrontEndConfig.PolicyOptions).
	PolicyOptions dispatch.Options
	Mechanism     core.Mechanism
	Params        policy.Params

	Catalog    map[core.Target]int64
	CacheBytes int64
	// MaxTargets caps the front-end's target interner (see
	// FrontEndConfig.MaxTargets); 0 means no cap.
	MaxTargets int
	Disk       server.DiskParams
	Costs      server.Costs

	// SimulateCPU applies the Apache/Flash CPU cost model at back-ends.
	SimulateCPU bool
	// TimeScale divides simulated latencies so the full system can be
	// exercised quickly with unchanged relative costs.
	TimeScale float64

	IdleTimeout time.Duration
	BatchWindow time.Duration

	// Membership knobs, passed through to the front-end (see the
	// FrontEndConfig fields of the same names); zero values take the
	// front-end defaults.
	DialRetries      int
	DialBackoff      time.Duration
	HeartbeatTimeout time.Duration
	ConfirmWindow    time.Duration
	HealthInterval   time.Duration
	RetryBudget      int

	// Frontends sizes the scale-out front-end tier; 0 or 1 starts the
	// paper's single front-end. A plural tier starts Frontends front-end
	// nodes over the same back-ends, each with its own client listener
	// and dispatch engine, exchanging dispatch state per State.
	Frontends int
	// State selects the tier's dispatch-state backend (sharded or
	// replicated; required when Frontends > 1).
	State dstate.Mode
	// SyncInterval and StateSeed pass through to the front-ends (see
	// FrontEndConfig fields of the same names).
	SyncInterval time.Duration
	StateSeed    uint64
}

// PrototypeCacheBytes is the default prototype back-end cache: the paper's
// 128 MB machines showed 60-75 MB of effective file cache under Apache.
const PrototypeCacheBytes = 60 << 20

// DefaultConfig returns the calibrated prototype configuration over the
// given catalog.
func DefaultConfig(nodes int, catalog map[core.Target]int64) Config {
	return Config{
		Nodes:       nodes,
		Policy:      "extlard",
		Mechanism:   core.BEForwarding,
		Params:      policy.DefaultParams(),
		Catalog:     catalog,
		CacheBytes:  PrototypeCacheBytes,
		Disk:        server.DefaultDisk(),
		Costs:       server.ApacheCosts(),
		SimulateCPU: true,
		TimeScale:   1,
		IdleTimeout: 15 * time.Second,
		BatchWindow: 2 * time.Millisecond,
	}
}

// Cluster is a running in-process prototype cluster. FE is the first
// (or only) front-end; a scale-out tier's members are all in FEs.
type Cluster struct {
	FE  *FrontEnd
	FEs []*FrontEnd
	BEs []*Backend
	dir string

	cfg Config
	gen int // replacement generation, for unique handoff socket paths
}

// Start brings up the back-ends, wires their peer links, and starts the
// front-end. Callers must Close the cluster.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	if len(cfg.Catalog) == 0 {
		return nil, fmt.Errorf("cluster: empty catalog")
	}
	dir, err := HandoffSocketDir()
	if err != nil {
		return nil, fmt.Errorf("cluster: handoff socket dir: %w", err)
	}
	c := &Cluster{dir: dir, cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		be, err := NewBackend(BackendConfig{
			ID:            core.NodeID(i),
			Catalog:       cfg.Catalog,
			CacheBytes:    cfg.CacheBytes,
			Disk:          cfg.Disk,
			Costs:         cfg.Costs,
			SimulateCPU:   cfg.SimulateCPU,
			TimeScale:     cfg.TimeScale,
			HandoffSocket: filepath.Join(dir, fmt.Sprintf("be%d.sock", i)),
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.BEs = append(c.BEs, be)
	}
	peers := make(map[core.NodeID]string, cfg.Nodes)
	for i, be := range c.BEs {
		peers[core.NodeID(i)] = be.PeerAddr()
	}
	for _, be := range c.BEs {
		be.SetPeers(peers)
	}
	eps := make([]BackendEndpoints, len(c.BEs))
	for i, be := range c.BEs {
		eps[i] = BackendEndpoints{Ctrl: be.CtrlAddr(), Handoff: be.HandoffPath()}
	}
	frontends := cfg.Frontends
	if frontends < 1 {
		frontends = 1
	}
	for f := 0; f < frontends; f++ {
		fecfg := FrontEndConfig{
			Nodes:            cfg.Nodes,
			Policy:           cfg.Policy,
			PolicyOptions:    cfg.PolicyOptions,
			Mechanism:        cfg.Mechanism,
			Params:           cfg.Params,
			CacheBytes:       cfg.CacheBytes,
			MaxTargets:       cfg.MaxTargets,
			IdleTimeout:      cfg.IdleTimeout,
			BatchWindow:      cfg.BatchWindow,
			DialRetries:      cfg.DialRetries,
			DialBackoff:      cfg.DialBackoff,
			HeartbeatTimeout: cfg.HeartbeatTimeout,
			ConfirmWindow:    cfg.ConfirmWindow,
			HealthInterval:   cfg.HealthInterval,
			RetryBudget:      cfg.RetryBudget,
		}
		if frontends > 1 {
			fecfg.Frontends = frontends
			fecfg.FEID = f
			fecfg.State = cfg.State
			fecfg.SyncInterval = cfg.SyncInterval
			fecfg.StateSeed = cfg.StateSeed
		}
		fe, err := NewFrontEnd(fecfg, eps)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.FEs = append(c.FEs, fe)
	}
	c.FE = c.FEs[0]
	// Two-phase tier bring-up: every member's peer listener exists now, so
	// each can link to the full slate.
	if frontends > 1 {
		addrs := make([]string, frontends)
		for f, fe := range c.FEs {
			addrs[f] = fe.PeerAddr()
		}
		for _, fe := range c.FEs {
			if err := fe.ConnectPeers(addrs); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

// FEAddrs returns the client-facing addresses of every front-end, in
// front-end-ID order.
func (c *Cluster) FEAddrs() []string {
	addrs := make([]string, len(c.FEs))
	for i, fe := range c.FEs {
		addrs[i] = fe.Addr()
	}
	return addrs
}

// Addr returns the client-facing address of the front-end.
func (c *Cluster) Addr() string { return c.FE.Addr() }

// HitRate returns the aggregate back-end cache hit rate.
func (c *Cluster) HitRate() float64 {
	var hits, misses int64
	for _, be := range c.BEs {
		h, m := be.Store().Counters()
		hits += h
		misses += m
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Served returns the total responses written by all back-ends.
func (c *Cluster) Served() int64 {
	var n int64
	for _, be := range c.BEs {
		n += be.Served()
	}
	return n
}

// AddBackend replaces slot id with a freshly started back-end process
// (cold cache) and reconnects the front-end to it — the prototype's
// join/rejoin operation. The previous occupant, if any, is closed first.
func (c *Cluster) AddBackend(id core.NodeID) (*Backend, error) {
	if int(id) < 0 || int(id) >= len(c.BEs) {
		return nil, fmt.Errorf("cluster: backend slot %v out of range [0,%d)", id, len(c.BEs))
	}
	if old := c.BEs[id]; old != nil {
		old.Close()
	}
	c.gen++
	be, err := NewBackend(BackendConfig{
		ID:            id,
		Catalog:       c.cfg.Catalog,
		CacheBytes:    c.cfg.CacheBytes,
		Disk:          c.cfg.Disk,
		Costs:         c.cfg.Costs,
		SimulateCPU:   c.cfg.SimulateCPU,
		TimeScale:     c.cfg.TimeScale,
		HandoffSocket: filepath.Join(c.dir, fmt.Sprintf("be%d-g%d.sock", id, c.gen)),
	})
	if err != nil {
		return nil, err
	}
	c.BEs[id] = be
	// Re-wire lateral-fetch peers everywhere: the replacement listens on
	// fresh ports, and the newcomer needs the full peer map itself.
	peers := make(map[core.NodeID]string, len(c.BEs))
	for i, b := range c.BEs {
		peers[core.NodeID(i)] = b.PeerAddr()
	}
	for _, b := range c.BEs {
		b.SetPeers(peers)
	}
	for _, fe := range c.FEs {
		if err := fe.AddBackend(id, BackendEndpoints{Ctrl: be.CtrlAddr(), Handoff: be.HandoffPath()}); err != nil {
			be.Close()
			return nil, err
		}
	}
	return be, nil
}

// RemoveBackend drains slot id at every front-end (graceful leave). The
// back-end process keeps running until its work completes; callers close
// it when done, or replace it via AddBackend.
func (c *Cluster) RemoveBackend(id core.NodeID) error {
	for _, fe := range c.FEs {
		if err := fe.RemoveBackend(id); err != nil {
			return err
		}
	}
	return nil
}

// Close tears the cluster down: front-ends first (stops traffic), then
// the back-ends, then the handoff socket directory.
func (c *Cluster) Close() {
	for _, fe := range c.FEs {
		fe.Close()
	}
	for _, be := range c.BEs {
		be.Close()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}
