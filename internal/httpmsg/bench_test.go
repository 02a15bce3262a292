package httpmsg

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"phttp/internal/core"
)

// BenchmarkReadRequestInternedParallel measures the front-end's parse path
// — request head parse plus parse-time interning — from parallel
// goroutines, the shape of concurrent connection handlers. "capped" holds
// the whole hot set; "capped/full" holds half of it, so the other half
// takes the full table's overflow path (NoTarget, raw target string).
func BenchmarkReadRequestInternedParallel(b *testing.B) {
	const hotSet = 256
	raw := make([][]byte, hotSet)
	for i := range raw {
		raw[i] = []byte(fmt.Sprintf("GET /doc/%04d HTTP/1.1\r\nHost: bench\r\n\r\n", i))
	}
	run := func(b *testing.B, in *core.Interner) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			br := bufio.NewReader(nil)
			rd := bytes.NewReader(nil)
			i := uint32(0)
			for pb.Next() {
				i = i*1664525 + 1013904223
				rd.Reset(raw[i%hotSet])
				br.Reset(rd)
				if _, err := ReadRequestInterned(br, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("pinned", func(b *testing.B) {
		run(b, core.NewInterner())
	})
	b.Run("capped", func(b *testing.B) {
		run(b, core.NewCappedInterner(4096))
	})
	b.Run("capped/full", func(b *testing.B) {
		run(b, core.NewCappedInterner(hotSet/2))
	})
}
