// Package cache is the required-annotation fixture for the mapping table's
// read path: type-checked under the real cache import path, where
// hotpathRequired lists the Mapping reads and the nodeMasks bit helpers,
// and lockFreeRequired the reads. IsMapped and MaskWord took a lock,
// AppendNodesFor lost its annotation, word was renamed away; the bit
// writers keep their annotations and may lock.
package cache // want "nodeMasks.word, required to be a //phttp:hotpath function, is not declared in phttp/internal/cache"

import "sync"

type nodeMasks struct {
	mu   sync.Mutex
	bits []uint64
}

type Mapping struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	masks nodeMasks
}

//phttp:hotpath
func (m *Mapping) IsMapped(id, n int) bool {
	m.mu.Lock() // want "sync.Mutex.Lock call in lock-free hot path IsMapped"
	defer m.mu.Unlock()
	return m.masks.load(id)>>uint(n)&1 != 0
}

//phttp:hotpath
func (m *Mapping) MaskWord(id int) uint64 {
	m.rw.RLock() // want "sync.RWMutex.RLock call in lock-free hot path MaskWord"
	defer m.rw.RUnlock()
	return m.masks.load(id)
}

func (m *Mapping) AppendNodesFor(buf []int, id int) []int { // want "Mapping.AppendNodesFor is on the per-request path and must be annotated //phttp:hotpath"
	return append(buf, id)
}

// load is what word was renamed to.
//
//phttp:hotpath
func (t *nodeMasks) load(id int) uint64 { return t.bits[id] }

//phttp:hotpath
func (t *nodeMasks) setBit(id, n int) {
	t.mu.Lock() // legal: setBit is a hot path, not a lock-free one
	t.bits[id] |= 1 << uint(n)
	t.mu.Unlock()
}

//phttp:hotpath
func (t *nodeMasks) clearBit(id, n int) { t.bits[id] &^= 1 << uint(n) }
