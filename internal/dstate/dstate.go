// Package dstate is the dispatch-state tier of the scale-out front-end:
// the mapping/load state a dispatch engine decides against, abstracted
// behind the Store interface so it can live in one process (local — the
// paper's single front-end), be partitioned across N front-ends (sharded —
// each front-end owns one mapping shard, chosen by a consistent-hashing
// ring (policy.OwnerRing), and non-owned
// targets forward their state transactions to the owner), or be fully
// replicated with bounded staleness (replicated — every front-end decides
// on its own replica, and a periodic sync exchanges mapping deltas and
// load vectors, last-writer-wins on conflicts). Both scale-out modes run
// one protocol, Member, in the simulator and in the prototype alike.
//
// The Store sits exactly where dispatch.Engine used to call its policy:
// every implementation routes the connection lifecycle
// (ConnOpen → AssignBatch* → BatchDone? → ConnClose) to the policy
// replica/shard that owns the connection's state. The local store is a
// pure delegation whose decisions — and therefore the figure goldens — are
// bit-identical to the pre-tier engine.
package dstate

import (
	"fmt"

	"phttp/internal/cache"
	"phttp/internal/core"
)

// Mode selects a dispatch-state backend.
type Mode int

const (
	// ModeLocal is the single-front-end store: one policy owns all state.
	ModeLocal Mode = iota
	// ModeSharded partitions the target space across the tier's
	// front-ends; each owns one mapping shard and decides for it.
	ModeSharded
	// ModeReplicated gives every front-end a full state replica, synced
	// with bounded staleness.
	ModeReplicated
)

// String returns the flag/schema spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModeSharded:
		return "sharded"
	case ModeReplicated:
		return "replicated"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the flag/schema spelling of a mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "local":
		return ModeLocal, nil
	case "sharded":
		return ModeSharded, nil
	case "replicated":
		return ModeReplicated, nil
	}
	return 0, fmt.Errorf("dstate: unknown state mode %q (valid modes: local, sharded, replicated)", s)
}

// CheckTier is the one tier-configuration rule of both worlds: it
// reports why a tier of frontends members cannot run state mode mode
// under mechanism mech, or nil. The simulator's Config.Validate and the
// prototype's front-end configuration both return its error as is.
func CheckTier(mode Mode, frontends int, mech core.Mechanism) error {
	switch mode {
	case ModeLocal:
		if frontends > 1 {
			return fmt.Errorf("dstate: local dispatch state is single-front-end; a %d-front-end tier needs sharded or replicated state", frontends)
		}
	case ModeSharded:
		// A member forwards a connection's open, move and close to the
		// target's owner, never its requests: the connection's batches
		// stay on the node the owner chose at open.
		if mech != core.SingleHandoff {
			return fmt.Errorf("dstate: sharded dispatch state requires the single-handoff mechanism (got %v)", mech)
		}
	case ModeReplicated:
	default:
		return fmt.Errorf("dstate: invalid state mode %v", mode)
	}
	return nil
}

// Store is one front-end's view of the dispatch-state tier. A dispatch
// engine calls it exactly where it used to call its policy; the store
// routes each call to the policy replica/shard owning the connection's
// state.
//
// Concurrency contract: identical to core.Policy as the engine uses it —
// calls for different connections may run in parallel, calls for one
// connection are serialized by its owner.
type Store interface {
	// Policy returns the front-end's own policy replica/shard — the
	// object engine-level membership transitions and metrics talk to.
	Policy() core.Policy

	// The connection lifecycle, routed to the owning state.
	ConnOpen(c *core.ConnState, first core.Request) core.NodeID
	AssignBatch(c *core.ConnState, batch core.Batch) []core.Assignment
	BatchDone(c *core.ConnState)
	ConnClose(c *core.ConnState)
	// MoveConn transfers c's connection-load unit to node `to` and
	// reassigns its handling node — the engine's re-dispatch action,
	// routed to the owner so the shard that charged the connection is
	// the one that moves it.
	MoveConn(c *core.ConnState, to core.NodeID)
	// ReportDiskQueue delivers back-end queue feedback to the local
	// replica/shard (every front-end holds its own control links, so
	// every one hears the back-ends directly).
	ReportDiskQueue(n core.NodeID, queued int)
}

// Local is the single-front-end store: a pure delegation to one policy.
// It is the default everywhere and the byte-identical path the figure
// goldens verify — each method is one interface call thinner than air.
type Local struct {
	pol core.Policy
}

var _ Store = (*Local)(nil)

// NewLocal wraps pol as a local store.
func NewLocal(pol core.Policy) *Local { return &Local{pol: pol} }

// Policy implements Store.
func (l *Local) Policy() core.Policy { return l.pol }

// ConnOpen implements Store.
//
//phttp:hotpath
func (l *Local) ConnOpen(c *core.ConnState, first core.Request) core.NodeID {
	return l.pol.ConnOpen(c, first)
}

// AssignBatch implements Store.
//
//phttp:hotpath
func (l *Local) AssignBatch(c *core.ConnState, batch core.Batch) []core.Assignment {
	return l.pol.AssignBatch(c, batch)
}

// BatchDone implements Store.
//
//phttp:hotpath
func (l *Local) BatchDone(c *core.ConnState) { l.pol.BatchDone(c) }

// ConnClose implements Store.
//
//phttp:hotpath
func (l *Local) ConnClose(c *core.ConnState) { l.pol.ConnClose(c) }

// ReportDiskQueue implements Store.
func (l *Local) ReportDiskQueue(n core.NodeID, queued int) { l.pol.ReportDiskQueue(n, queued) }

// MoveConn implements Store.
func (l *Local) MoveConn(c *core.ConnState, to core.NodeID) {
	l.pol.Loads().MoveConn(c.Handling, to)
	c.Handling = to
}

// MappingPolicy is the optional mapping accessor the LARD family exposes;
// the stateless policy (wrr) has no mapping to shard or
// replicate and simply skip the mapping half of the replication protocol.
type MappingPolicy interface {
	Mapping() *cache.Mapping
}
