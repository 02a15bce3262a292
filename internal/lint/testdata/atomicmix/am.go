// Package amfix is the atomicmix golden fixture: every use of a
// sync/atomic package-level function, called or taken as a value, must
// be flagged, and the methods of the typed atomics must stay silent.
package amfix

import (
	"sync/atomic"
	"unsafe"
)

type counters struct {
	hits  int64
	lanes [8]uint64
	head  unsafe.Pointer
}

func (c *counters) legacy(p unsafe.Pointer) bool {
	atomic.AddInt64(&c.hits, 1)                          // want "sync/atomic.AddInt64: use a typed atomic"
	_ = atomic.LoadUint64(&c.lanes[0])                   // want "sync/atomic.LoadUint64"
	return atomic.CompareAndSwapPointer(&c.head, nil, p) // want "sync/atomic.CompareAndSwapPointer"
}

// Function values are uses too: the field they reach is still plain.
var (
	add  = atomic.AddInt64              // want "sync/atomic.AddInt64"
	load = atomic.LoadUint64            // want "sync/atomic.LoadUint64"
	cas  = atomic.CompareAndSwapPointer // want "sync/atomic.CompareAndSwapPointer"
)

type node struct{ next *node }

// typed has no plain access to mix with; its methods are legal.
type typed struct {
	hits  atomic.Int64
	lanes [8]atomic.Uint64
	head  atomic.Pointer[node]
	cfg   atomic.Value
}

func (t *typed) modern(n *node) bool {
	t.hits.Add(1)
	_ = t.lanes[0].Load()
	t.cfg.Store("x")
	_ = t.cfg.Load()
	inc := t.hits.Add // a method value is a typed access too
	inc(1)
	return t.head.CompareAndSwap(nil, n)
}
