package cache

import (
	"math/bits"
	"sync"
	"sync/atomic"

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
// node's lock, so parallel writers contend only when they touch the same
// node, and eviction is exact LRU per node — the order the simulator's
// determinism depends on.
//
// Reads take no lock. Next to the LRUs the mapping keeps, per target, the
// bitset of nodes whose LRU holds it; node n's bit changes only under node
// n's lock, at the moment n's LRU gains or loses the target (insert, evict,
// Unmap, DropNode). IsMapped is one atomic load, and AppendNodesFor one load
// and a bit scan per 64 nodes.
type Mapping struct {
	perNode []nodeLRU
	masks   nodeMasks

	// obs, when set, observes every Map write (the belief "target is now
	// cached at node"). The scale-out front-end tier's replicated state
	// store journals writes through it; nil — one predictable branch on
	// the write path — everywhere else. Synced writes arriving from peers
	// are applied with ApplySynced, which bypasses the observer so a
	// replicated belief is never re-broadcast.
	obs func(id core.TargetID, size int64, n core.NodeID)
}

// nodeLRU is one node's model: the IDLRU and the lock every write takes.
// It is also the entry hook its IDLRU calls, under mu, as entries come and
// go: it keeps the node's bit in the target's mask in step with the LRU.
type nodeLRU struct {
	mu    sync.Mutex
	lru   *IDLRU
	n     core.NodeID
	masks *nodeMasks
}

func (p *nodeLRU) onInsert(id core.TargetID) { p.masks.setBit(id, p.n) }
func (p *nodeLRU) onEvict(id core.TargetID)  { p.masks.clearBit(id, p.n) }

// NewMapping returns a mapping model for n nodes, each modeled as an LRU of
// cacheBytes capacity.
func NewMapping(n int, cacheBytes int64) *Mapping {
	m := &Mapping{perNode: make([]nodeLRU, n)}
	m.masks.init((n + 63) / 64)
	for i := range m.perNode {
		p := &m.perNode[i]
		p.n, p.masks = core.NodeID(i), &m.masks
		p.lru = NewIDLRU(cacheBytes)
		p.lru.hook = p
	}
	return m
}

// Nodes returns the number of nodes modeled.
func (m *Mapping) Nodes() int { return len(m.perNode) }

// IsMapped reports whether target is believed cached at node n, without
// promoting it. It takes no lock.
//
//phttp:hotpath
func (m *Mapping) IsMapped(id core.TargetID, n core.NodeID) bool {
	return m.masks.word(id, int(n)>>6)&(1<<(uint(n)&63)) != 0
}

// MaskWord returns word w of target's node bitset: bit i is set when node
// 64w+i is believed to cache it. It takes no lock; a decision over several
// candidates reads it once instead of asking IsMapped per node.
//
//phttp:hotpath
func (m *Mapping) MaskWord(id core.TargetID, w int) uint64 {
	return m.masks.word(id, w)
}

// Map records that node n fetched (and now caches) target of the given
// size, promoting it and aging out colder mappings under n's budget.
//
// Map, ApplySynced, Touch and Unmap ignore NoTarget — a target a full
// capped interner turned away. It is never mapped, so IsMapped and
// AppendNodesFor read an empty node set for it and every LARD-family
// policy places it on its unmapped, least-loaded path.
func (m *Mapping) Map(id core.TargetID, size int64, n core.NodeID) {
	if id == core.NoTarget {
		return
	}
	m.ApplySynced(id, size, n)
	if m.obs != nil {
		m.obs(id, size, n)
	}
}

// SetWriteObserver installs the Map-write hook (nil uninstalls). Set it
// before traffic; the dispatch-state tier does, right after building the
// policy.
func (m *Mapping) SetWriteObserver(obs func(id core.TargetID, size int64, n core.NodeID)) {
	m.obs = obs
}

// ApplySynced records a mapping belief received from a peer front-end's
// replication delta: the same insert as Map, without notifying the write
// observer (the origin already journaled it; re-journaling here would
// gossip every belief back and forth forever).
func (m *Mapping) ApplySynced(id core.TargetID, size int64, n core.NodeID) {
	if id == core.NoTarget {
		return
	}
	p := &m.perNode[n]
	p.mu.Lock()
	p.lru.Insert(id, size)
	p.mu.Unlock()
}

// Touch promotes target in n's model if mapped (the front-end saw another
// request for it served there).
func (m *Mapping) Touch(id core.TargetID, n core.NodeID) {
	if id == core.NoTarget {
		return
	}
	p := &m.perNode[n]
	p.mu.Lock()
	p.lru.Lookup(id) // promotes on a hit; the mapping reads no hit counters
	p.mu.Unlock()
}

// Unmap removes the belief that node n caches target.
func (m *Mapping) Unmap(id core.TargetID, n core.NodeID) {
	if id == core.NoTarget {
		return
	}
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
// path allocates nothing. It takes no lock.
//
//phttp:hotpath
func (m *Mapping) AppendNodesFor(buf []core.NodeID, id core.TargetID) []core.NodeID {
	for w := 0; w < m.masks.words; w++ {
		for set := m.masks.word(id, w); set != 0; set &= set - 1 {
			buf = append(buf, core.NodeID(w<<6+bits.TrailingZeros64(set)))
		}
	}
	return buf
}

// DropNode discards every belief about node n. This is the cold-start
// handling of a Down node: a crashed back-end restarts with an empty
// cache, so the model must not keep steering its old targets back to it
// when it rejoins. (Warm-up handling — a drained node that kept its
// cache — simply skips this call.)
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

// Mask chunking: the per-target bitsets live in fixed-size chunks reached
// through an atomically published directory (the slotArena pattern of
// core/intern.go), so chunks never move under a lock-free reader.
const (
	maskChunkBits = 10
	maskChunkSize = 1 << maskChunkBits
	maskChunkMask = maskChunkSize - 1
)

// nodeMasks is the per-target node bitset: words 64-bit words per
// TargetID. Bits are set and cleared with compare-and-swap, because the
// writers of different nodes — each under its own node's lock — can race
// on one word.
type nodeMasks struct {
	words  int
	dir    atomic.Pointer[[][]atomic.Uint64]
	growMu sync.Mutex
}

func (t *nodeMasks) init(words int) {
	t.words = words
	t.dir.Store(&[][]atomic.Uint64{})
}

// word returns word w of id's bitset; 0 for an ID no node has held yet.
//
//phttp:hotpath
func (t *nodeMasks) word(id core.TargetID, w int) uint64 {
	dir := *t.dir.Load()
	c := int(id) >> maskChunkBits
	if c >= len(dir) {
		return 0
	}
	return dir[c][(int(id)&maskChunkMask)*t.words+w].Load()
}

// at returns the word holding node n's bit for id, growing the directory
// to cover id if it does not yet.
//
//phttp:hotpath
func (t *nodeMasks) at(id core.TargetID, n core.NodeID) *atomic.Uint64 {
	c := int(id) >> maskChunkBits
	dir := *t.dir.Load()
	if c >= len(dir) {
		dir = t.grow(c)
	}
	return &dir[c][(int(id)&maskChunkMask)*t.words+int(n)>>6]
}

// setBit turns node n's bit for id on.
//
//phttp:hotpath
func (t *nodeMasks) setBit(id core.TargetID, n core.NodeID) {
	p, bit := t.at(id, n), uint64(1)<<(uint(n)&63)
	for old := p.Load(); !p.CompareAndSwap(old, old|bit); old = p.Load() {
	}
}

// clearBit turns node n's bit for id off.
//
//phttp:hotpath
func (t *nodeMasks) clearBit(id core.TargetID, n core.NodeID) {
	p, bit := t.at(id, n), uint64(1)<<(uint(n)&63)
	for old := p.Load(); !p.CompareAndSwap(old, old&^bit); old = p.Load() {
	}
}

// grow publishes a directory with chunk c, copying the chunk pointers so a
// concurrent reader keeps a coherent view, and returns it.
func (t *nodeMasks) grow(c int) [][]atomic.Uint64 {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	cur := *t.dir.Load()
	if c < len(cur) {
		return cur
	}
	grown := make([][]atomic.Uint64, c+1)
	copy(grown, cur)
	for i := len(cur); i <= c; i++ {
		grown[i] = make([]atomic.Uint64, maskChunkSize*t.words)
	}
	t.dir.Store(&grown)
	return grown
}
