package core

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// histStream draws n samples from a mix of scales — tight uniform,
// heavy-tailed log-uniform, and exact small integers — so bucket edges at
// every octave get exercised.
func histStream(r *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		switch r.Intn(3) {
		case 0:
			vals[i] = r.Int63n(100) // unit buckets, exact
		case 1:
			vals[i] = 1000 + r.Int63n(100_000)
		default:
			vals[i] = int64(math.Exp(r.Float64()*30)) + 1 // log-uniform up to e^30
		}
	}
	return vals
}

// exactQuantile is the reference order statistic Quantile bounds: the
// ceil(q·n)-th smallest sample.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestLatencyHistQuantileBoundedError(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		vals := histStream(r, 2000+r.Intn(8000))
		h := NewLatencyHist()
		var sum int64
		for _, v := range vals {
			h.Record(v)
			sum += v
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		if h.Count() != int64(len(vals)) {
			t.Fatalf("trial %d: Count = %d, want %d", trial, h.Count(), len(vals))
		}
		if h.Sum() != sum {
			t.Fatalf("trial %d: Sum = %d, want %d", trial, h.Sum(), sum)
		}
		if h.Max() != sorted[len(sorted)-1] {
			t.Fatalf("trial %d: Max = %d, want %d", trial, h.Max(), sorted[len(sorted)-1])
		}
		for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
			exact := exactQuantile(sorted, q)
			got := h.Quantile(q)
			if got < exact {
				t.Fatalf("trial %d: Quantile(%g) = %d underestimates exact %d", trial, q, got, exact)
			}
			// Upper edge of the exact sample's bucket: off by at most one
			// sub-bucket width, i.e. relative error ≤ 2^-7.
			if float64(got-exact) > float64(exact)/128+1 {
				t.Fatalf("trial %d: Quantile(%g) = %d vs exact %d: error beyond one sub-bucket",
					trial, q, got, exact)
			}
		}
	}
}

func TestLatencyHistBucketLayout(t *testing.T) {
	// Every bucket contains its own bounds, and bounds tile int64 with no
	// gaps or overlaps.
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if histIndex(lo) != i || histIndex(hi) != i {
			t.Fatalf("bucket %d [%d,%d]: bounds map to indices %d,%d", i, lo, hi, histIndex(lo), histIndex(hi))
		}
		if i > 0 {
			_, prevHi := histBounds(i - 1)
			if lo != prevHi+1 {
				t.Fatalf("bucket %d starts at %d, previous ends at %d", i, lo, prevHi)
			}
		}
	}
	if _, hi := histBounds(histBuckets - 1); hi != math.MaxInt64 {
		t.Fatalf("top bucket ends at %d, want MaxInt64", hi)
	}
	if got := histIndex(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("histIndex(MaxInt64) = %d, want %d", got, histBuckets-1)
	}
	h := NewLatencyHist()
	h.Record(-5) // clamps, must not panic
	if h.Count() != 1 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative sample: count=%d q50=%d, want 1, 0", h.Count(), h.Quantile(0.5))
	}
}

func TestLatencyHistCountAbove(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vals := histStream(r, 5000)
	h := NewLatencyHist()
	for _, v := range vals {
		h.Record(v)
	}
	for _, threshold := range []int64{0, 50, 1000, 40_000, 1 << 25} {
		var exact, inBucket int64
		ti := histIndex(threshold)
		for _, v := range vals {
			if v > threshold {
				exact++
			}
			if histIndex(v) == ti {
				inBucket++
			}
		}
		got := h.CountAbove(threshold)
		if got > exact || got < exact-inBucket {
			t.Fatalf("CountAbove(%d) = %d, want in [%d,%d]", threshold, got, exact-inBucket, exact)
		}
	}
}

func TestLatencyHistMergeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	mk := func() *LatencyHist {
		h := NewLatencyHist()
		for _, v := range histStream(r, 3000) {
			h.Record(v)
		}
		return h
	}
	a, b, c := mk(), mk(), mk()

	left := a.Snapshot()
	left.Merge(b)
	left.Merge(c)

	bc := b.Snapshot()
	bc.Merge(c)
	right := a.Snapshot()
	right.Merge(bc)

	if left.Count() != right.Count() || left.Sum() != right.Sum() || left.Max() != right.Max() {
		t.Fatalf("merge associativity: (a+b)+c = (%d,%d,%d), a+(b+c) = (%d,%d,%d)",
			left.Count(), left.Sum(), left.Max(), right.Count(), right.Sum(), right.Max())
	}
	for i := range left.buckets {
		if l, r := left.buckets[i].Load(), right.buckets[i].Load(); l != r {
			t.Fatalf("merge associativity: bucket %d differs: %d vs %d", i, l, r)
		}
	}
}

func TestLatencyHistSubWarmupDelta(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	warm, measured := histStream(r, 2000), histStream(r, 6000)
	h := NewLatencyHist()
	for _, v := range warm {
		h.Record(v)
	}
	snap := h.Snapshot()
	for _, v := range measured {
		h.Record(v)
	}
	delta := h.Snapshot()
	delta.Sub(snap)

	if delta.Count() != int64(len(measured)) {
		t.Fatalf("delta count = %d, want %d", delta.Count(), len(measured))
	}
	sorted := append([]int64(nil), measured...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.5, 0.99, 0.999} {
		exact := exactQuantile(sorted, q)
		got := delta.Quantile(q)
		if got < exact || float64(got-exact) > float64(exact)/128+1 {
			t.Fatalf("delta Quantile(%g) = %d vs exact %d", q, got, exact)
		}
	}
}

func TestLatencyHistConcurrentRecord(t *testing.T) {
	const goroutines = 8
	const perG = 20_000
	h := NewLatencyHist()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Record(r.Int63n(1 << 30))
				if i%1024 == 0 {
					// Concurrent readers must be race-free with writers.
					h.Quantile(0.99)
					h.Count()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("concurrent Count = %d, want %d", h.Count(), goroutines*perG)
	}
	var fromBuckets int64
	h.Each(func(_, _ int64, c int64) { fromBuckets += c })
	if fromBuckets != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", fromBuckets, goroutines*perG)
	}
}

// TestLatencyHistRecordZeroAllocs holds the record path to zero
// allocations in steady state, in the style of
// TestDispatchSteadyStateZeroAllocs: the histogram sits on the
// simulator's per-request hot path.
func TestLatencyHistRecordZeroAllocs(t *testing.T) {
	h := NewLatencyHist()
	v := int64(17)
	allocs := testing.AllocsPerRun(10_000, func() {
		h.Record(v)
		v = (v*1664525 + 1013904223) & (1<<40 - 1)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.2f per call, want 0", allocs)
	}
}

// A snapshot taken while Record runs is consistent with itself: its count
// is the sum of its buckets (the property the Prometheus exposition needs:
// the +Inf bucket equals _count), whatever the live counters were doing.
func TestLatencyHistSnapshotConsistentUnderRecord(t *testing.T) {
	h := NewLatencyHist()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := int64(g); ; v = (v*31 + 7) % 100000 {
				select {
				case <-stop:
					return
				default:
					h.Record(v)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var sum int64
		s.Each(func(lo, hi, count int64) { sum += count })
		if sum != s.Count() {
			t.Fatalf("snapshot %d: buckets sum to %d, Count() = %d", i, sum, s.Count())
		}
	}
	close(stop)
	wg.Wait()
	if s := h.Snapshot(); s.Count() != h.Count() || s.Sum() != h.Sum() || s.Max() != h.Max() {
		t.Errorf("quiescent snapshot (%d, %d, %d) differs from the histogram (%d, %d, %d)",
			s.Count(), s.Sum(), s.Max(), h.Count(), h.Sum(), h.Max())
	}
}
