package dstate

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"phttp/internal/core"
	"phttp/internal/policy"
)

// MapDelta is one journaled mapping write: the member learned (or
// re-learned) that Node now caches target ID of the given size. A journal
// is in write order and applies in that order, so a conflict between
// origins on one target resolves last-writer-wins in delivery order.
type MapDelta struct {
	ID   core.TargetID
	Node core.NodeID
	Size int64
}

// NodeLoad is one node's entry in a load vector: the load and connection
// count a member charged there itself.
type NodeLoad struct {
	Load  float64
	Conns int64
}

// Peer is what a Member sends through to another member of its tier. A
// method returns false when the peer cannot be reached; the member then
// decides locally and counts a fallback. A *Member is itself a Peer — the
// simulator wires its members to each other and delivery is a method call
// at the current virtual instant — and the prototype's peer link is the
// other one, lines over TCP.
type Peer interface {
	// PeerOpen runs connection conn's open on the target's owner and
	// returns the node it chose.
	PeerOpen(origin int, conn core.ConnID, first core.Request) (core.NodeID, bool)
	// PeerClose releases conn's load unit on the owner.
	PeerClose(origin int, conn core.ConnID) bool
	// PeerMove moves conn's load unit on the owner to node to.
	PeerMove(origin int, conn core.ConnID, to core.NodeID) bool
	// PeerSync delivers origin's mapping deltas, in write order, then its
	// load vector (nil: none).
	PeerSync(origin int, deltas []MapDelta, loads []NodeLoad) bool
}

// remoteKey names a connection owned here on behalf of a peer.
type remoteKey struct {
	fe int
	id core.ConnID
}

// Member is one front-end's share of the scale-out dispatch-state tier and
// the one copy of its protocol. It implements Store over the front-end's
// own policy replica/shard:
//
//   - sharded: the first request's target names the owning member (the
//     owner ring). A connection owned elsewhere runs its open, move and
//     close on the owner through Peer, and its batches stay on the node
//     the owner chose, as a connection-granular policy's would (CheckTier
//     admits sharding under single handoff only).
//   - replicated: every decision is local. Mapping writes are journaled,
//     and Sync sends the journal and the local load vector to every peer.
//
// The member owns no timers: whoever drives it calls Sync. Receiving is
// the Peer methods; what does not fit the tier — an origin outside it, a
// node out of range, a vector of the wrong length — is dropped, as a lost
// message would be, and an open from outside the tier is refused.
type Member struct {
	mode  Mode
	fe    int
	pol   core.Policy
	nodes int
	ring  *policy.OwnerRing // sharded only
	// peers[f] reaches member f; our own slot is never used.
	peers []Peer

	jmu     sync.Mutex
	journal []MapDelta

	// peerLoads holds each peer's latest load vector; the remote base of
	// a node is their sum, in index order.
	lmu       sync.Mutex
	peerLoads [][]NodeLoad

	// remote holds the connections owned here for peers (sharded).
	rmu    sync.Mutex
	remote map[remoteKey]*core.ConnState

	// remoteOpens counts opens decided by a peer owner; fallbacks, state
	// transactions decided locally because the owner was unreachable
	// (locality lost, not requests); syncs, Sync rounds sent.
	remoteOpens, fallbacks, syncs atomic.Int64
}

var (
	_ Store = (*Member)(nil)
	_ Peer  = (*Member)(nil)
)

// ShardRingSeed salts the shard-ownership ring of every sharded tier, in
// the simulator and the prototype alike: the members of one tier must
// agree on it, and a fixed value keeps simulator runs a pure function of
// (config, trace).
const ShardRingSeed = 0x1d15a7c4

// NewMember builds member fe of a tier of len(peers) front-ends over its
// own policy pol (every member's built from the same spec). peers may be
// filled in after the call, but before traffic. A sharded member owns
// its slice of the ShardRingSeed ring. A replicated member journals its
// mapping writes from here on.
func NewMember(mode Mode, fe int, pol core.Policy, peers []Peer) (*Member, error) {
	if fe < 0 || fe >= len(peers) {
		return nil, fmt.Errorf("dstate: front-end %d outside a tier of %d", fe, len(peers))
	}
	m := &Member{
		mode:      mode,
		fe:        fe,
		pol:       pol,
		nodes:     pol.Loads().Nodes(),
		peers:     peers,
		peerLoads: make([][]NodeLoad, len(peers)),
		remote:    make(map[remoteKey]*core.ConnState),
	}
	switch mode {
	case ModeSharded:
		m.ring = policy.NewOwnerRing(len(peers), 0, ShardRingSeed)
	case ModeReplicated:
		if mp, ok := pol.(MappingPolicy); ok {
			mp.Mapping().SetWriteObserver(m.record)
		}
	default:
		return nil, fmt.Errorf("dstate: a tier member needs sharded or replicated state, got %v", mode)
	}
	return m, nil
}

// Policy implements Store.
func (m *Member) Policy() core.Policy { return m.pol }

// RemoteOpens returns the opens whose node a peer owner chose.
func (m *Member) RemoteOpens() int64 { return m.remoteOpens.Load() }

// Fallbacks returns the state transactions decided locally because the
// owning peer was unreachable.
func (m *Member) Fallbacks() int64 { return m.fallbacks.Load() }

// Syncs returns the replication rounds this member has sent.
func (m *Member) Syncs() int64 { return m.syncs.Load() }

// ownedElsewhere reports whether a peer holds c's state.
func (m *Member) ownedElsewhere(c *core.ConnState) bool {
	f := int(c.OwnerFE)
	return f >= 0 && f < len(m.peers) && f != m.fe
}

// ConnOpen implements Store. A sharded member hands the open to the
// target's owner and decides locally when the owner is unreachable
// (availability over locality). A target past a capped interner's cap
// (NoTarget) has no owner: it is decided locally, by load.
func (m *Member) ConnOpen(c *core.ConnState, first core.Request) core.NodeID {
	if m.ring != nil && first.ID != core.NoTarget {
		if owner := m.ring.Owner(first.ID); owner != m.fe {
			n, ok := m.peers[owner].PeerOpen(m.fe, c.ID, first)
			if ok && n >= 0 && int(n) < m.nodes {
				c.OwnerFE = int32(owner)
				c.Handling = n
				m.remoteOpens.Add(1)
				return n
			}
			m.fallbacks.Add(1)
		}
	}
	c.OwnerFE = int32(m.fe)
	return m.pol.ConnOpen(c, first)
}

// AssignBatch implements Store: a connection owned elsewhere is pinned to
// its handling node, exactly as the owner's connection-granular policy
// would assign it.
func (m *Member) AssignBatch(c *core.ConnState, batch core.Batch) []core.Assignment {
	if !m.ownedElsewhere(c) {
		return m.pol.AssignBatch(c, batch)
	}
	out := c.AssignBuf(len(batch))
	for i := range batch {
		out[i] = core.Assignment{Node: c.Handling}
		c.Requests++
	}
	c.Batches++
	return out
}

// BatchDone implements Store.
func (m *Member) BatchDone(c *core.ConnState) {
	if !m.ownedElsewhere(c) {
		m.pol.BatchDone(c)
	}
}

// ConnClose implements Store. When the owner is unreachable its charge
// stays until it learns the origin is lost (PeerLost); nothing was
// charged here.
func (m *Member) ConnClose(c *core.ConnState) {
	if !m.ownedElsewhere(c) {
		m.pol.ConnClose(c)
		return
	}
	if !m.peers[c.OwnerFE].PeerClose(m.fe, c.ID) {
		m.fallbacks.Add(1)
	}
	c.Handling = core.NoNode
}

// MoveConn implements Store: the member that charged the connection moves
// its load unit.
func (m *Member) MoveConn(c *core.ConnState, to core.NodeID) {
	if !m.ownedElsewhere(c) {
		m.pol.Loads().MoveConn(c.Handling, to)
	} else if !m.peers[c.OwnerFE].PeerMove(m.fe, c.ID, to) {
		m.fallbacks.Add(1)
	}
	c.Handling = to
}

// ReportDiskQueue implements Store: every member hears the back-ends
// directly.
func (m *Member) ReportDiskQueue(n core.NodeID, queued int) { m.pol.ReportDiskQueue(n, queued) }

// record journals one local mapping write (the mapping's write observer;
// synced applies bypass it, so a delta is never sent on).
func (m *Member) record(id core.TargetID, size int64, n core.NodeID) {
	m.jmu.Lock()
	m.journal = append(m.journal, MapDelta{ID: id, Node: n, Size: size})
	m.jmu.Unlock()
}

// Sync sends one replication round to every peer: the journal, in write
// order, then the locally charged load vector. It is a no-op outside
// replicated mode. The staleness bound is the caller's period: the
// simulator calls every member's Sync in front-end order from one
// virtual-time event, the prototype from a wall-clock ticker. Writes
// journaled during a round go in the next one.
func (m *Member) Sync() {
	if m.mode != ModeReplicated {
		return
	}
	m.jmu.Lock()
	deltas := m.journal
	m.journal = nil
	m.jmu.Unlock()
	lt := m.pol.Loads()
	vec := make([]NodeLoad, m.nodes)
	for i := range vec {
		n := core.NodeID(i)
		vec[i] = NodeLoad{Load: lt.LocalLoad(n), Conns: int64(lt.LocalConns(n))}
	}
	for f, p := range m.peers {
		if f != m.fe {
			p.PeerSync(m.fe, deltas, vec)
		}
	}
	m.syncs.Add(1)
}

// isPeer reports whether fe names another member of the tier.
func (m *Member) isPeer(fe int) bool { return fe >= 0 && fe < len(m.peers) && fe != m.fe }

// PeerOpen implements Peer on the owner: it opens the connection on this
// member's shard and keeps it for the origin's later move and close.
func (m *Member) PeerOpen(origin int, conn core.ConnID, first core.Request) (core.NodeID, bool) {
	if !m.isPeer(origin) {
		return core.NoNode, false
	}
	cs := core.NewConnState(conn)
	cs.OwnerFE = int32(m.fe)
	n := m.pol.ConnOpen(cs, first)
	if n != core.NoNode {
		m.rmu.Lock()
		m.remote[remoteKey{fe: origin, id: conn}] = cs
		m.rmu.Unlock()
	}
	return n, true
}

// PeerClose implements Peer on the owner.
func (m *Member) PeerClose(origin int, conn core.ConnID) bool {
	key := remoteKey{fe: origin, id: conn}
	m.rmu.Lock()
	cs := m.remote[key]
	delete(m.remote, key)
	m.rmu.Unlock()
	if cs != nil {
		m.pol.ConnClose(cs)
	}
	return true
}

// PeerMove implements Peer on the owner.
func (m *Member) PeerMove(origin int, conn core.ConnID, to core.NodeID) bool {
	m.rmu.Lock()
	cs := m.remote[remoteKey{fe: origin, id: conn}]
	m.rmu.Unlock()
	if cs != nil && to >= 0 && int(to) < m.nodes {
		m.pol.Loads().MoveConn(cs.Handling, to)
		cs.Handling = to
	}
	return true
}

// PeerLost releases every connection held for origin, in connection
// order: a lost peer never sends their closes. Its last load vector
// leaves the remote base, which is summed again over the survivors.
func (m *Member) PeerLost(origin int) {
	if !m.isPeer(origin) {
		return
	}
	m.lmu.Lock()
	if m.peerLoads[origin] != nil {
		m.peerLoads[origin] = nil
		m.setRemoteLocked()
	}
	m.lmu.Unlock()
	m.rmu.Lock()
	var lost []*core.ConnState
	for key, cs := range m.remote {
		if key.fe == origin {
			lost = append(lost, cs)
			delete(m.remote, key)
		}
	}
	m.rmu.Unlock()
	slices.SortFunc(lost, func(a, b *core.ConnState) int { return cmp.Compare(a.ID, b.ID) })
	for _, cs := range lost {
		m.pol.ConnClose(cs)
	}
}

// PeerSync implements Peer: it applies origin's deltas to the local
// replica, then stores its load vector and sets every node's remote base
// to the sum of the peers' vectors.
func (m *Member) PeerSync(origin int, deltas []MapDelta, loads []NodeLoad) bool {
	if !m.isPeer(origin) {
		return true
	}
	if mp, ok := m.pol.(MappingPolicy); ok {
		mapping := mp.Mapping()
		for _, d := range deltas {
			if d.Node >= 0 && int(d.Node) < m.nodes {
				mapping.ApplySynced(d.ID, d.Size, d.Node)
			}
		}
	}
	if len(loads) != m.nodes {
		return true
	}
	m.lmu.Lock()
	defer m.lmu.Unlock()
	m.peerLoads[origin] = append(m.peerLoads[origin][:0], loads...)
	m.setRemoteLocked()
	return true
}

// setRemoteLocked sets every node's remote base to the sum of the peers'
// load vectors, in index order. m.lmu must be held.
func (m *Member) setRemoteLocked() {
	lt := m.pol.Loads()
	for i := 0; i < m.nodes; i++ {
		var sum NodeLoad
		for _, v := range m.peerLoads {
			if v != nil {
				sum.Load += v[i].Load
				sum.Conns += v[i].Conns
			}
		}
		lt.SetRemote(core.NodeID(i), sum.Load)
		lt.SetRemoteConns(core.NodeID(i), sum.Conns)
	}
}
