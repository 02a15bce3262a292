package core

import (
	"fmt"
	"testing"
)

// BenchmarkInternerPinnedHit measures the pinned re-intern (the simulator
// and loader hot path): a snapshot map lookup, no locks.
func BenchmarkInternerPinnedHit(b *testing.B) {
	const targets = 1024
	in := NewInterner()
	names := make([]Target, targets)
	for i := range names {
		names[i] = Target(fmt.Sprintf("/t%d", i))
		in.Intern(names[i])
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := uint32(0)
		for pb.Next() {
			i = i*1664525 + 1013904223
			if in.Intern(names[i%targets]) == NoTarget {
				b.Fail()
			}
		}
	})
}
