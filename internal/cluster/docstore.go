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
	// page is the doc's content page once a body of pageBodyMin bytes or
	// more has been sent (DocStore.page): written once, before it is
	// published here, and never again.
	page atomic.Pointer[contentPage]
}

// pageSize is the size of a content page: four periods of a target's
// content, so body offset off is page byte off % pageSize.
const pageSize = 4 * chunkBytes

// contentPage holds the first pageSize bytes of a target's content, in
// memory outside the Go heap (pageArena).
type contentPage [pageSize]byte

// arenaBytes counts the page memory mapped in the process (pageArena).
var arenaBytes atomic.Int64

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

	pages pageArena

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

// page returns dc's content page, making it on the doc's first large
// body, or nil where pages cannot be made (see pageArena).
func (d *DocStore) page(dc *doc) *contentPage {
	if pg := dc.page.Load(); pg != nil {
		return pg
	}
	return d.pages.publish(dc)
}

// releasePages unpublishes every page and unmaps the arena. Bytes already
// handed to the kernel stay valid: it holds references to their pages.
// Called once nothing serves any more.
func (d *DocStore) releasePages() {
	for _, dc := range d.docs {
		dc.page.Store(nil)
	}
	d.pages.release()
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

// WriteContent writes the target's deterministic content (size bytes) to
// w. Content depends only on the target name, so any node (or a lateral
// peer) produces identical bytes — tests verify end-to-end integrity. A
// chunk writer takes it in its own chunk; any other writer through a
// pooled one.
func WriteContent(w io.Writer, t core.Target, size int64) error {
	if cw, ok := w.(*chunkWriter); ok {
		return cw.writeContent(t, size)
	}
	cw := newChunkWriter(w, size)
	defer cw.release()
	if err := cw.writeContent(t, size); err != nil {
		return err
	}
	return cw.Flush()
}

// writeContent writes size bytes of t's content into the chunk, generating
// them in place (fillContent) and flushing whenever the chunk fills.
func (cw *chunkWriter) writeContent(t core.Target, size int64) error {
	for off := int64(0); off < size; {
		if cw.n == len(cw.buf) {
			if err := cw.Flush(); err != nil {
				return err
			}
		}
		n := int(min(int64(len(cw.buf)-cw.n), size-off))
		fillContent(cw.buf[cw.n:cw.n+n], t, off)
		cw.n += n
		off += int64(n)
	}
	return nil
}

// chunkBytes is the period of a target's content.
const chunkBytes = 1 << 10

// A target's content repeats with a period of chunkBytes: segment k is the
// target name, '#', k in four digits and '|', repeated and cut at
// chunkBytes, so corruption and cross-target mixups are both detectable. A
// segment is at least six bytes long, so k stays under 1000 and every
// segment has the same length. Nothing stores it: ContentByte reads one
// byte off the layout, and fillContent generates a span.

// ContentByte returns the expected content byte at offset i of target t,
// for spot-checking integrity without materializing bodies.
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

// fillContent fills b with t's content from offset off on: one period,
// rotated to off's phase, then doubled by copying until b is full.
func fillContent(b []byte, t core.Target, off int64) {
	var p [chunkBytes]byte
	j := int(off % chunkBytes)
	fillPeriod(p[:min(j+len(b), chunkBytes)], t)
	n := copy(b, p[j:])
	n += copy(b[n:], p[:j])
	for n < len(b) {
		n += copy(b[n:], b[:n])
	}
}

// fillPeriod writes the first len(p) bytes of a period of t's content
// into p. Segments 0 to 9 are written one by one; every later block of ten
// is a copy of the block before it with its hundreds and tens digits
// rewritten, as only those differ. Digits are stored byte by byte: built
// as an array and copied, they would stall the load that reads them back.
func fillPeriod(p []byte, t core.Target) {
	seg := len(t) + 6
	n := 0
	for k := 0; k < 10 && n < len(p); k++ {
		n += copy(p[n:], t)
		if r := p[n:]; len(r) >= 6 {
			r[0], r[1], r[2], r[3], r[4], r[5] = '#', '0', '0', '0', byte('0'+k), '|'
			n += 6
			continue
		}
		for ; n < len(p); n++ {
			p[n] = ContentByte(t, int64(n))
		}
	}
	for block := 10 * seg; n < len(p); {
		end := n + copy(p[n:], p[n-block:n])
		for k, d := n/seg, n+len(t)+2; d < end; k, d = k+1, d+seg {
			p[d] = byte('0' + k/100)
			if d+1 < end {
				p[d+1] = byte('0' + k/10%10)
			}
		}
		n = end
	}
}
