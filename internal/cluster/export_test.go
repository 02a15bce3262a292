package cluster

import "phttp/internal/core"

// MappedPageBytes is the content-page memory mapped in the process, for
// the external tests.
func MappedPageBytes() int64 { return arenaBytes.Load() }

// CPUAsked is the modelled CPU time, in µs, the node's CPU has been asked
// to hold for.
func (b *Backend) CPUAsked() core.Micros { return core.Micros(b.cpu.asked.Load()) }

// Conns is how many connection records the node holds.
func (b *Backend) Conns() int {
	b.connMu.Lock()
	defer b.connMu.Unlock()
	return len(b.conns)
}
