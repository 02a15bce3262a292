package simcore

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"phttp/internal/core"
)

// callFn schedules fn as a lane-less event at absolute time t: the func()
// rides as the event's payload (a func value is pointer-shaped, so boxing
// it allocates nothing).
func callFn(e *Engine, t core.Micros, fn func()) { e.Call(t, runFunc, fn, 0, 0) }

func runFunc(obj any, _, _ int64) { obj.(func())() }

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	callFn(e, 30, func() { got = append(got, 3) })
	callFn(e, 10, func() { got = append(got, 1) })
	callFn(e, 20, func() { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("event order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		callFn(e, 5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	callFn(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		callFn(e, 5, func() {})
	})
	e.Run(0)
}

func TestEngineEventsCanSchedule(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			callFn(e, e.Now()+1, chain)
		}
	}
	callFn(e, e.Now()+1, chain)
	n := e.Run(0)
	if n != 100 || count != 100 {
		t.Errorf("ran %d events, counted %d, want 100", n, count)
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
}

func TestEngineBudget(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		callFn(e, core.Micros(i), func() {})
	}
	// Events waiting in a lane count as pending too, not only its head.
	r := e.NewResource()
	for i := 0; i < 5; i++ {
		r.Call(100, func(any, int64, int64) { r.Release() }, nil, 0, 0)
	}
	if e.Pending() != 15 {
		t.Errorf("Pending() = %d, want 15", e.Pending())
	}
	if n := e.Run(4); n != 4 {
		t.Errorf("Run(4) processed %d", n)
	}
	if e.Pending() != 11 {
		t.Errorf("Pending() = %d, want 11", e.Pending())
	}
	if n := e.Run(8); n != 8 {
		t.Errorf("Run(8) processed %d", n)
	}
	if e.Pending() != 3 || r.Queued() != 3 {
		t.Errorf("Pending() = %d, Queued() = %d, want 3 and 3", e.Pending(), r.Queued())
	}
}

// Property: popping the heap always yields non-decreasing times.
func TestEngineHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []core.Micros
		for _, tm := range times {
			at := core.Micros(tm)
			callFn(e, at, func() { fired = append(fired, at) })
		}
		e.Run(0)
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := e.NewResource()
	var fired []core.Micros
	rec := func(any, int64, int64) {
		fired = append(fired, e.Now())
		r.Release()
	}
	d1 := r.Call(10, rec, nil, 0, 0)
	d2 := r.Call(5, rec, nil, 0, 0)
	if d1 != 10 || d2 != 15 {
		t.Errorf("completions %v, %v, want 10, 15", d1, d2)
	}
	if r.Queued() != 2 {
		t.Errorf("Queued() = %d, want 2", r.Queued())
	}
	callFn(e, 20, func() {
		if d3 := r.Call(5, rec, nil, 0, 0); d3 != 25 { // idle gap 15..20, then 5 of work
			t.Errorf("third completion %v, want 25", d3)
		}
	})
	e.Run(0)
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 15 || fired[2] != 25 {
		t.Errorf("completions fired at %v, want [10 15 25]", fired)
	}
	if r.Queued() != 0 {
		t.Errorf("Queued() = %d after releases", r.Queued())
	}
	if r.BusyTotal() != 20 {
		t.Errorf("BusyTotal() = %v, want 20", r.BusyTotal())
	}
	if got := r.Utilization(40); got != 0.5 {
		t.Errorf("Utilization(40) = %v, want 0.5", got)
	}
}

func TestResourceNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a negative cost did not panic")
		}
	}()
	e := NewEngine()
	r := e.NewResource()
	r.Call(-1, func(any, int64, int64) {}, nil, 0, 0)
}

func TestResourceOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release without Schedule did not panic")
		}
	}()
	var r Resource
	r.Release()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGStreamDeterminism(t *testing.T) {
	a, b := NewRNGStream(42, 7), NewRNGStream(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, stream) produced different sequences")
		}
	}
}

func TestRNGStreamsAreDistinct(t *testing.T) {
	// Every pair among a handful of streams of one seed — and the base
	// NewRNG sequence — must diverge within a few draws.
	const seed, draws = 42, 8
	seqs := [][]uint64{}
	base := NewRNG(seed)
	var bs []uint64
	for i := 0; i < draws; i++ {
		bs = append(bs, base.Uint64())
	}
	seqs = append(seqs, bs)
	for stream := uint64(0); stream < 16; stream++ {
		r := NewRNGStream(seed, stream)
		var s []uint64
		for i := 0; i < draws; i++ {
			s = append(s, r.Uint64())
		}
		seqs = append(seqs, s)
	}
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			same := true
			for k := 0; k < draws; k++ {
				if seqs[i][k] != seqs[j][k] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("sequences %d and %d identical over %d draws", i, j, draws)
			}
		}
	}
	// Different seeds give different streams too.
	x, y := NewRNGStream(1, 3), NewRNGStream(2, 3)
	if x.Uint64() == y.Uint64() && x.Uint64() == y.Uint64() {
		t.Error("different seeds produced identical stream 3")
	}
}

func TestRNGStreamZeroSeedNonDegenerate(t *testing.T) {
	r := NewRNGStream(0, 0)
	a, b := r.Uint64(), r.Uint64()
	if a == 0 && b == 0 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestZipfWithSharesCDF(t *testing.T) {
	rng := NewRNG(5)
	z := NewZipf(rng, 100, 0.8)
	// A child sampler on its own stream must match a freshly built sampler
	// driven by an identical stream: With only swaps the RNG.
	zw := z.With(NewRNGStream(5, 2))
	ref := NewZipf(NewRNGStream(5, 2), 100, 0.8)
	for i := 0; i < 1000; i++ {
		if a, b := zw.Next(), ref.Next(); a != b {
			t.Fatalf("draw %d: With sampler %d, reference %d", i, a, b)
		}
	}
}

// The guide table only narrows the search: every draw is the first rank
// whose cdf reaches u, as a search over the whole table finds it.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 1000, 28000} {
		for _, alpha := range []float64{0.6, 0.78, 1.3} {
			z := NewZipf(NewRNGStream(9, uint64(n)), n, alpha)
			ref := NewRNGStream(9, uint64(n))
			for i := 0; i < 20000; i++ {
				u := ref.Float64()
				want := sort.Search(n-1, func(k int) bool { return z.cdf[k] >= u })
				if got := z.Next(); got != want {
					t.Fatalf("n=%d alpha=%v draw %d (u=%v): rank %d, full search %d", n, alpha, i, u, got, want)
				}
			}
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) covered %d values of 7", len(seen))
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("Exp(5) sample mean = %v", mean)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(13)
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(3)
	}
	mean := float64(sum) / n
	if math.Abs(mean-3) > 0.1 {
		t.Errorf("Geometric(3) sample mean = %v", mean)
	}
	if r.Geometric(0.5) != 1 {
		t.Error("Geometric(<1) should return 1")
	}
}

func TestRNGParetoLowerBound(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 1000; i++ {
		if v := r.Pareto(100, 1.5); v < 100 {
			t.Fatalf("Pareto sample %v below scale", v)
		}
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	r := NewRNG(19)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("rank 0 (%d) not more popular than rank 50 (%d)", counts[0], counts[50])
	}
	// With alpha=1, P(0)/P(9) = 10.
	ratio := float64(counts[0]) / float64(counts[9])
	if ratio < 7 || ratio > 14 {
		t.Errorf("P(0)/P(9) = %v, want ~10", ratio)
	}
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0) did not panic")
		}
	}()
	NewZipf(NewRNG(1), 0, 1)
}

// TestEngineResetReusesSlabs pins the sweep-pool contract: a reset engine
// is observably identical to a fresh one (clock, order, results) while
// keeping its arenas, so per-worker engines reused across grid points
// cannot perturb determinism.
func TestEngineResetReusesSlabs(t *testing.T) {
	run := func(e *Engine) []int {
		var got []int
		callFn(e, e.Now()+30, func() { got = append(got, 3) })
		callFn(e, e.Now()+10, func() { got = append(got, 1) })
		callFn(e, 20, func() { got = append(got, 2) })
		e.Run(0)
		return got
	}
	eng := NewEngine()
	first := run(eng)
	eng.Reset()
	if eng.Now() != 0 || eng.Pending() != 0 {
		t.Fatalf("reset engine: now=%v pending=%d", eng.Now(), eng.Pending())
	}
	second := run(eng)
	fresh := run(NewEngine())
	for i := range fresh {
		if first[i] != fresh[i] || second[i] != fresh[i] {
			t.Fatalf("reused engine diverged: first=%v second=%v fresh=%v", first, second, fresh)
		}
	}
	// Reset with events still pending must drop them.
	callFn(eng, eng.Now()+5, func() { t.Error("event survived Reset") })
	eng.Reset()
	if n := eng.Run(0); n != 0 {
		t.Errorf("ran %d events after Reset", n)
	}
}

// TestEngineResetDropsPayloads: neither a fired event nor a Reset with
// events pending leaves a payload reference behind in the slab or in a
// ring, so a reused sweep engine does not pin the previous run's records.
func TestEngineResetDropsPayloads(t *testing.T) {
	e := NewEngine()
	r := e.NewResource()
	payload := &stepPayload{}
	nop := func(any, int64, int64) {}
	held := func() int {
		n := 0
		for _, b := range e.bodies[:cap(e.bodies)] {
			if b.obj != nil {
				n++
			}
		}
		for _, l := range e.lanes {
			for _, ev := range l.ring {
				if ev.obj != nil {
					n++
				}
			}
		}
		return n
	}
	for i := 0; i < 20; i++ {
		e.CallAfter(1, nop, payload, 0, 0)
		r.Call(1, nop, payload, 0, 0)
	}
	e.Run(30)
	if got := held(); got != 10 {
		t.Errorf("%d payload references held with 10 events pending", got)
	}
	e.Reset()
	if got := held(); got != 0 {
		t.Errorf("%d payload references survived Reset", got)
	}
}

// TestResourceAccessors covers the diagnostic getters the cluster
// utilization reporting reads.
func TestResourceAccessors(t *testing.T) {
	e := NewEngine()
	r := e.NewResource()
	if r.BusyUntil() != 0 || r.BusyTotal() != 0 || r.Queued() != 0 {
		t.Fatalf("new resource: %+v", r)
	}
	if got := r.Utilization(0); got != 0 {
		t.Errorf("Utilization with no elapsed time = %v, want 0", got)
	}
	callFn(e, 10, func() {
		done := r.Call(30, func(any, int64, int64) { r.Release() }, nil, 0, 0)
		if done != 40 || r.BusyUntil() != 40 || r.Queued() != 1 {
			t.Errorf("Call: done=%v busyUntil=%v queued=%d", done, r.BusyUntil(), r.Queued())
		}
	})
	e.Run(0)
	if got := r.Utilization(60); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if got := r.Utilization(15); got != 1 {
		t.Errorf("Utilization clamps at 1, got %v", got)
	}
	if r.Queued() != 0 {
		t.Errorf("Queued after Release = %d", r.Queued())
	}
}
