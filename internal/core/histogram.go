package core

import (
	"math/bits"
	"sync/atomic"
)

// LatencyHist is a fixed-bucket HDR-style latency histogram: log-linear
// buckets (one octave per power of two, each split into 2^histSubBits
// linear sub-buckets) give a bounded relative error of 2^-histSubBits
// (≤ 0.8%) at any value, over the full int64 range, in a fixed ~57 KB of
// memory allocated once.
//
// Record is lock-free — two atomic adds and a CAS loop for the max —
// so the prototype front-end records from concurrent connection handlers
// without a mutex, and the single-threaded simulator pays only the
// uncontended-atomic cost (a few ns) per request. Every counter is a
// typed atomic, so no read or write of one can be plain; readers see
// each bucket's count with at least acquire semantics (the Go memory
// model makes every sync/atomic operation sequentially consistent), but
// a scrape concurrent with writers observes buckets at slightly
// different instants — fine for monitoring, and the terminal read in the
// simulator and in tests happens after the writers quiesce.
//
// Histograms are mergeable (Merge) and subtractable (Sub), so warmup
// handling is a Snapshot at the warm point and a subtraction at
// the end — recording itself never checks warmup state.
//
// There is no separate sample counter: the count is the sum of the
// buckets, so a Prometheus _count equals the +Inf bucket by construction.
type LatencyHist struct {
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

const (
	// histSubBits sets the linear sub-bucket resolution per octave:
	// 2^7 = 128 sub-buckets bound the relative quantile error by
	// 2^-7 ≈ 0.78%.
	histSubBits    = 7
	histSubBuckets = 1 << histSubBits

	// Values below histSubBuckets get exact unit-width buckets
	// (indices 0..127); every higher octave [2^e, 2^(e+1)) contributes
	// histSubBuckets more. bits.Len64 of an int64 is at most 63, so the
	// top octave is e=62 and the final index is (62-6)*128 + 127.
	histBuckets = (63-histSubBits)*histSubBuckets + histSubBuckets
)

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist { return &LatencyHist{} }

// histIndex maps a non-negative value to its bucket index.
func histIndex(v int64) int {
	if v < histSubBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // ≥ histSubBits
	shift := uint(exp - histSubBits)
	// v>>shift is in [histSubBuckets, 2*histSubBuckets); successive
	// octaves tile the index space contiguously.
	return (exp-histSubBits)<<histSubBits + int(v>>shift)
}

// histBounds returns the closed value range [lo, hi] of bucket i.
func histBounds(i int) (lo, hi int64) {
	if i < histSubBuckets {
		return int64(i), int64(i)
	}
	exp := i>>histSubBits + histSubBits - 1 // octave: bits.Len64(v)-1 for v in this bucket
	width := int64(1) << uint(exp-histSubBits)
	lo = (int64(i&(histSubBuckets-1)) + histSubBuckets) * width
	return lo, lo + width - 1
}

// Record adds one sample. Negative values clamp to zero (virtual-time
// delays are never negative; a wall-clock caller racing a clock step
// must not fault). Safe for concurrent use.
//
//phttp:hotpath
func (h *LatencyHist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of recorded samples: the sum of the buckets,
// one pass over them (not for hot paths).
func (h *LatencyHist) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all recorded samples.
func (h *LatencyHist) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded sample (0 when empty).
func (h *LatencyHist) Max() int64 { return h.max.Load() }

// Mean returns the mean sample, 0 when empty.
func (h *LatencyHist) Mean() float64 {
	c := h.Count()
	if c == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(c)
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// upper edge of the bucket holding the ceil(q·count)-th smallest sample.
// The bound overshoots the exact order statistic by at most one bucket
// width — a relative error ≤ 2^-histSubBits. Returns 0 when empty.
func (h *LatencyHist) Quantile(q float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			cum += c
			if cum >= rank {
				_, hi := histBounds(i)
				if m := h.Max(); hi > m {
					// The top occupied bucket's edge can exceed the
					// actual maximum; never report beyond it.
					hi = m
				}
				return hi
			}
		}
	}
	return h.Max()
}

// CountAbove returns the number of samples strictly greater than v, up
// to bucket resolution: samples sharing v's bucket are not counted, so
// the result can undercount by at most the straddling bucket's
// population (values within 2^-histSubBits of v).
func (h *LatencyHist) CountAbove(v int64) int64 {
	if v < 0 {
		v = 0
	}
	var n int64
	for i := histIndex(v) + 1; i < histBuckets; i++ {
		n += h.buckets[i].Load()
	}
	return n
}

// Merge adds o's samples into h. Safe against concurrent Records on
// either side (counts move atomically; a racing reader may observe the
// merge mid-way).
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o == nil {
		return
	}
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.sum.Add(o.sum.Load())
	for {
		m, om := h.max.Load(), o.max.Load()
		if om <= m || h.max.CompareAndSwap(m, om) {
			return
		}
	}
}

// Sub removes o's samples from h in place: the warmup idiom is
// delta := h.Snapshot(); delta.Sub(warm). o must be an earlier
// snapshot of h (a prefix of its samples); Max is left as-is, since a
// prefix cannot identify which maximum survives.
func (h *LatencyHist) Sub(o *LatencyHist) {
	if o == nil {
		return
	}
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(-c)
		}
	}
	h.sum.Add(-o.sum.Load())
}

// Snapshot returns a copy that is consistent with itself while Record runs
// concurrently: the buckets are copied once and the copy's count is their
// sum, so cumulative bucket counts, Quantile and Count of the copy always
// agree — which a reader combining several live loads cannot get.
// Sum and Max are read after the buckets and may include samples the
// buckets do not (or, by the same few in-flight records, lag them); they
// are monitoring figures, not part of the invariant. One allocation; not
// for hot paths.
func (h *LatencyHist) Snapshot() *LatencyHist {
	c := &LatencyHist{}
	for i := range h.buckets {
		c.buckets[i].Store(h.buckets[i].Load())
	}
	c.sum.Store(h.sum.Load())
	c.max.Store(h.max.Load())
	return c
}

// Each calls fn for every non-empty bucket in ascending value order with
// the bucket's closed range and count. The Prometheus exporter and the
// quantile tests are built on it.
func (h *LatencyHist) Each(fn func(lo, hi int64, count int64)) {
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			lo, hi := histBounds(i)
			fn(lo, hi, c)
		}
	}
}
