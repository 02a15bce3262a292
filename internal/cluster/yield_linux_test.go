//go:build linux

package cluster

import (
	"testing"
	"time"
)

// A caller that asks at every batch is let through at most once per
// yieldEvery, however often it asks. (A yield on a busy machine can take a
// scheduler slice to come back, so the count has no useful lower bound
// beyond "it happens".)
func TestYieldThreadIsRateLimited(t *testing.T) {
	const span = 20 * yieldEvery
	yielded, asked := 0, 0
	for start := time.Now(); time.Since(start) < span; asked++ {
		if yieldThread() {
			yielded++
		}
	}
	if most := int(span/yieldEvery) + 1; yielded < 2 || yielded > most {
		t.Errorf("%d yields in %v (asked %d times), want 2..%d", yielded, span, asked, most)
	}
}
