package cache

import (
	"sync"

	"phttp/internal/core"
)

// Mapping is the front-end dispatcher's model of which back-end nodes
// currently cache each target: the paper's "mappings between targets and
// back-end nodes such that a target is considered to be cached on its
// associated back-end nodes".
//
// The model is one LRU per node, sized like the node's main-memory cache,
// so mappings age out the way the real cache replaces content. A target may
// be mapped to several nodes at once (replication, which extended LARD's
// caching heuristic deliberately permits).
//
// Targets are identified by interned TargetID throughout — the policies sit
// on the per-event path of both the simulator and the prototype front-end,
// and an ID comparison is the difference between an array probe and a
// string hash per mapping touch. Each node's model is an IDLRU behind that
// node's lock, so parallel dispatchers contend only when they touch the same
// node, and eviction is exact LRU per node — the order the simulator's
// determinism depends on.
type Mapping struct {
	perNode []nodeLRU

	// obs, when set, observes every Map write (the belief "target is now
	// cached at node"). The scale-out front-end tier's replicated state
	// store journals writes through it; nil — one predictable branch on
	// the write path — everywhere else. Synced writes arriving from peers
	// are applied with ApplySynced, which bypasses the observer so a
	// replicated belief is never re-broadcast.
	obs func(id core.TargetID, size int64, n core.NodeID)
}

// nodeLRU is one node's model: the IDLRU and the lock every access takes.
type nodeLRU struct {
	mu  sync.Mutex
	lru *IDLRU
}

// NewMapping returns a mapping model for n nodes, each modeled as an LRU of
// cacheBytes capacity.
func NewMapping(n int, cacheBytes int64) *Mapping {
	m := &Mapping{perNode: make([]nodeLRU, n)}
	for i := range m.perNode {
		m.perNode[i].lru = NewIDLRU(cacheBytes)
	}
	return m
}

// SetRefCounter wires the target-lifecycle hook into every per-node model:
// a target acquires one reference per node believed to cache it and
// releases it when the mapping ages out, so an evictable interner never
// recycles an ID the dispatcher still has beliefs about. Acquire and
// Release run under the node's lock; the interner never calls back into
// the mapping, so the lock order stays acyclic. Set it before traffic (the
// dispatch engine does, right after building the policy).
func (m *Mapping) SetRefCounter(rc core.RefCounter) {
	for i := range m.perNode {
		m.perNode[i].lru.SetRefCounter(rc)
	}
}

// Nodes returns the number of nodes modeled.
func (m *Mapping) Nodes() int { return len(m.perNode) }

// IsMapped reports whether target is believed cached at node n, without
// promoting it.
func (m *Mapping) IsMapped(id core.TargetID, n core.NodeID) bool {
	p := &m.perNode[n]
	p.mu.Lock()
	ok := p.lru.Contains(id)
	p.mu.Unlock()
	return ok
}

// Map records that node n fetched (and now caches) target of the given
// size, promoting it and aging out colder mappings under n's budget.
func (m *Mapping) Map(id core.TargetID, size int64, n core.NodeID) {
	m.ApplySynced(id, size, n)
	if m.obs != nil {
		m.obs(id, size, n)
	}
}

// SetWriteObserver installs the Map-write hook (nil uninstalls). Set it
// before traffic, like SetRefCounter; the dispatch-state tier does, right
// after building the policy.
func (m *Mapping) SetWriteObserver(obs func(id core.TargetID, size int64, n core.NodeID)) {
	m.obs = obs
}

// ApplySynced records a mapping belief received from a peer front-end's
// replication delta: the same insert as Map, without notifying the write
// observer (the origin already journaled it; re-journaling here would
// gossip every belief back and forth forever).
func (m *Mapping) ApplySynced(id core.TargetID, size int64, n core.NodeID) {
	p := &m.perNode[n]
	p.mu.Lock()
	p.lru.Insert(id, size)
	p.mu.Unlock()
}

// Touch promotes target in n's model if mapped (the front-end saw another
// request for it served there).
func (m *Mapping) Touch(id core.TargetID, n core.NodeID) {
	p := &m.perNode[n]
	p.mu.Lock()
	p.lru.Lookup(id) // promotes on a hit; the mapping reads no hit counters
	p.mu.Unlock()
}

// Unmap removes the belief that node n caches target.
func (m *Mapping) Unmap(id core.TargetID, n core.NodeID) {
	p := &m.perNode[n]
	p.mu.Lock()
	p.lru.Remove(id)
	p.mu.Unlock()
}

// NodesFor returns every node believed to cache target, in node order. It
// allocates; the per-event paths use AppendNodesFor.
func (m *Mapping) NodesFor(id core.TargetID) []core.NodeID {
	return m.AppendNodesFor(nil, id)
}

// AppendNodesFor appends every node believed to cache target to buf (in
// node order) and returns it. Policies pass a per-connection or
// lock-guarded scratch buffer, truncated by the caller, so the per-request
// path allocates nothing.
func (m *Mapping) AppendNodesFor(buf []core.NodeID, id core.TargetID) []core.NodeID {
	for i := range m.perNode {
		if m.IsMapped(id, core.NodeID(i)) {
			buf = append(buf, core.NodeID(i))
		}
	}
	return buf
}

// DropNode discards every belief about node n, releasing the interner
// references those beliefs held. This is the cold-start handling of a
// Down node: a crashed back-end restarts with an empty cache, so the
// model must not keep steering its old targets back to it when it
// rejoins. (Warm-up handling — a drained node that kept its cache —
// simply skips this call.)
func (m *Mapping) DropNode(n core.NodeID) {
	p := &m.perNode[n]
	p.mu.Lock()
	p.lru.Clear()
	p.mu.Unlock()
}

// MappedBytes returns the bytes of content believed cached at node n.
func (m *Mapping) MappedBytes(n core.NodeID) int64 {
	p := &m.perNode[n]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Bytes()
}

// MappedTargets returns the number of targets believed cached at node n.
func (m *Mapping) MappedTargets(n core.NodeID) int {
	p := &m.perNode[n]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}
