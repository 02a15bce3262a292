// Package cluster implements the prototype cluster of Section 7: a
// front-end running the dispatcher (LARD / extended LARD / WRR) and a
// forwarding module, back-end nodes serving documents on connections handed
// off by the front-end, request tagging, and transparent lateral fetches
// between back-ends.
//
// Substitutions relative to the FreeBSD prototype are documented in
// DESIGN.md §4: TCP handoff is performed by passing the accepted client
// connection's file descriptor over a UNIX domain socket (the back-end then
// writes responses directly to the client, bypassing the front-end data
// path, while the front-end keeps reading requests — the same control/data
// split the kernel module provides); NFS cross-mounts become a pool of
// persistent connections between back-ends speaking protocol.go's
// FETCH/SIZE lines; and physical disks become a per-node simulated disk in
// the doc store.
package cluster

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phttp/internal/cache"
	"phttp/internal/core"
	"phttp/internal/server"
)

// doc is one entry of a store's document table: everything the serving
// path needs about a target, reached through one pointer. The control loop
// resolves a request's target to its doc while the target is still bytes in
// the read buffer, so serving does no further lookup by name.
type doc struct {
	target core.Target // canonical: the catalog's own string
	size   int64
	// idx keys the doc in its store's cache: dense and 1-based, unique
	// within the store.
	idx core.TargetID
	// missing marks a stand-in for a target the catalog does not hold: it
	// carries the name (a lateral fetch still asks the tagged peer) and is
	// answered 404 locally.
	missing bool
	// pat caches the target's repeating content pattern, built on first
	// use (see pattern).
	pat atomic.Pointer[[]byte]
}

// pattern returns the doc's 1 KB content pattern, taking it from the
// process-wide pattern cache the first time this store serves the doc.
func (dc *doc) pattern() []byte {
	p := dc.pat.Load()
	if p == nil {
		p = cachedChunk(dc.target)
		dc.pat.Store(p)
	}
	return *p
}

// DocStore is a back-end node's document subsystem: a table of the catalog's
// documents, a byte-budgeted LRU cache standing in for the OS file cache,
// and a simulated disk (one read at a time, seek+transfer latency per
// miss).
type DocStore struct {
	docs  map[core.Target]*doc // the catalog
	model server.DiskParams

	mu    sync.Mutex
	cache *cache.IDLRU // keyed by doc.idx

	disk   gate
	queued atomic.Int64

	hits   atomic.Int64
	misses atomic.Int64
}

// NewDocStore builds a doc store over the catalog with the given cache
// budget and disk model. timeScale > 1 divides simulated latencies, letting
// tests run the full system quickly with identical relative costs.
func NewDocStore(catalog map[core.Target]int64, cacheBytes int64, disk server.DiskParams, timeScale float64) *DocStore {
	return newDocStore(catalog, cacheBytes, disk, timeScale, nil)
}

// newDocStore is NewDocStore whose disk reads end when done closes.
func newDocStore(catalog map[core.Target]int64, cacheBytes int64, disk server.DiskParams, timeScale float64, done <-chan struct{}) *DocStore {
	if timeScale <= 0 {
		timeScale = 1
	}
	docs := make(map[core.Target]*doc, len(catalog))
	all := make([]doc, len(catalog)) // one allocation for the whole table
	for t, sz := range catalog {
		dc := &all[len(docs)]
		dc.target, dc.size, dc.idx = t, sz, core.TargetID(len(docs)+1)
		docs[t] = dc
	}
	return &DocStore{
		docs:  docs,
		model: disk,
		cache: cache.NewIDLRU(cacheBytes),
		disk:  newGate(timeScale, done),
	}
}

// lookup resolves a target still in a read buffer to its doc, or nil; the
// conversion in the map index does not allocate.
func (d *DocStore) lookup(target []byte) *doc { return d.docs[core.Target(target)] }

// Open makes the target's content available, blocking for the simulated
// disk read on a cache miss, and returns its size. Local reads always enter
// the cache (the OS file cache offers no bypass).
func (d *DocStore) Open(t core.Target) (int64, error) {
	dc := d.docs[t]
	if dc == nil {
		return 0, fmt.Errorf("cluster: no such target %q", t)
	}
	if !d.cached(dc) {
		d.read(dc)
	}
	return dc.size, nil
}

// cached reports (and counts) a cache hit. On a miss the caller follows
// with read; the two are separate so that a server can put out what it has
// buffered before it waits for the disk.
func (d *DocStore) cached(dc *doc) bool {
	d.mu.Lock()
	hit := d.cache.Lookup(dc.idx)
	d.mu.Unlock()
	if hit {
		d.hits.Add(1)
	}
	return hit
}

// read is the miss path: queue for the simulated disk, wait out the read,
// enter the cache.
func (d *DocStore) read(dc *doc) {
	d.misses.Add(1)
	d.queued.Add(1)
	d.disk.use(d.model.ReadTime(dc.size))
	d.queued.Add(-1)
	d.mu.Lock()
	d.cache.Insert(dc.idx, dc.size)
	d.mu.Unlock()
}

// readTime is how long the disk takes to read size bytes: the modeled
// service time divided by the time scale, zero for a store without a disk
// model.
func (d *DocStore) readTime(size int64) time.Duration {
	return d.disk.duration(d.model.ReadTime(size))
}

// DiskQueue returns the number of disk reads queued or in progress — the
// figure the back-ends report to the front-end over the control session.
func (d *DocStore) DiskQueue() int { return int(d.queued.Load()) }

// HitRate returns the cache hit rate observed so far.
func (d *DocStore) HitRate() float64 {
	h, m := d.hits.Load(), d.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Counters returns raw hit/miss counts.
func (d *DocStore) Counters() (hits, misses int64) {
	return d.hits.Load(), d.misses.Load()
}

// WriteContent streams the target's deterministic content (size bytes) to
// w. Content depends only on the target name, so any node (or a lateral
// peer) produces identical bytes — tests verify end-to-end integrity.
func WriteContent(w io.Writer, t core.Target, size int64) error {
	return writePattern(w, *cachedChunk(t), size)
}

// writePattern writes size bytes of the repeating pattern to w.
func writePattern(w io.Writer, chunk []byte, size int64) error {
	var written int64
	for written < size {
		n := int64(len(chunk))
		if size-written < n {
			n = size - written
		}
		if _, err := w.Write(chunk[:n]); err != nil {
			return err
		}
		written += n
	}
	return nil
}

// ContentByte returns the expected content byte at offset i of target t,
// for spot-checking integrity without materializing bodies. It reads the
// byte off the pattern's layout (see contentChunk) rather than building or
// looking up the pattern.
func ContentByte(t core.Target, i int64) byte {
	seg := len(t) + 6 // t, '#', four digits, '|'
	j := int(i % chunkBytes)
	k, off := j/seg, j%seg
	switch {
	case off < len(t):
		return t[off]
	case off == len(t):
		return '#'
	case off == seg-1:
		return '|'
	}
	for d := seg - 2; d > off; d-- {
		k /= 10
	}
	return byte('0' + k%10)
}

// chunkBytes is the length of a target's content pattern.
const chunkBytes = 1 << 10

// chunkCache holds the patterns built so far in the process, so that the
// stores of an in-process cluster build each target's pattern once, behind
// one pointer that their docs share (doc.pat).
var chunkCache struct {
	sync.RWMutex
	m map[core.Target]*[]byte
}

// cachedChunk returns t's pattern from chunkCache, building it on first
// use.
func cachedChunk(t core.Target) *[]byte {
	chunkCache.RLock()
	p := chunkCache.m[t]
	chunkCache.RUnlock()
	if p != nil {
		return p
	}
	b := contentChunk(t)
	chunkCache.Lock()
	defer chunkCache.Unlock()
	if p = chunkCache.m[t]; p == nil {
		if chunkCache.m == nil {
			chunkCache.m = make(map[core.Target]*[]byte)
		}
		p = &b
		chunkCache.m[t] = p
	}
	return p
}

// contentChunk builds the repeating 1 KB pattern for a target: segment k
// is the target name, '#', k in four digits and '|', repeated and cut at
// chunkBytes, so corruption and cross-target mixups are both detectable.
// A segment is at least six bytes long, so k stays under 1000 and every
// segment has the same length.
func contentChunk(t core.Target) []byte {
	const n = chunkBytes
	b := make([]byte, 0, n+len(t)+16)
	for i := 0; len(b) < n; i++ {
		b = append(b, t...)
		b = append(b, '#')
		for pad := 1000; pad > 1 && i < pad; pad /= 10 {
			b = append(b, '0') // the counter is at least four digits wide
		}
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, '|')
	}
	return b[:n:n]
}
