package simcore

import (
	"container/heap"
	"testing"

	"phttp/internal/core"
)

// refEvent and refHeap are the reference the engine is pinned to: one
// container/heap of every pending event, ordered by (time, seq). The engine
// keeps most events out of its heap, in lanes; the property tests demand
// the exact firing order of this single heap all the same, including
// equal-time tie-breaks.
type refEvent struct {
	at  core.Micros
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// scheduler is what a schedule script drives: the engine under test or the
// reference.
type scheduler interface {
	now() core.Micros
	call(t core.Micros, id int)              // a lane-less event
	serve(res int, cost core.Micros, id int) // work on resource res, event at its completion
	run(s *script, budget int) (fired int)   // fire up to budget events (0: all), each through s.fire
}

// script turns bytes into a schedule. The first byte picks the number of
// resources (0–4), the second the number of events scheduled up front
// (enough on one resource to outgrow a ring's first capacity); after that
// every fired event reads how many events it schedules from inside its
// callback (0–2). An event is two bytes: where it goes — lane-less or one of
// the resources — and a delay or cost of 0–7 µs, so equal times within and
// across lanes are the common case. A script that runs out of bytes reads
// zeros, so every script ends.
type script struct {
	data   []byte
	pos    int
	nres   int
	nextID int
	order  []int
	q      scheduler
}

func (s *script) byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *script) schedule() {
	where, d := int(s.byte())%(s.nres+1), core.Micros(s.byte()%8)
	id := s.nextID
	s.nextID++
	if where == 0 {
		s.q.call(s.q.now()+d, id)
	} else {
		s.q.serve(where-1, d, id)
	}
}

func (s *script) fire(id int) {
	s.order = append(s.order, id)
	for n := s.byte() % 3; n > 0; n-- {
		s.schedule()
	}
}

// play runs data against q, stopping after budget events (0: run dry), and
// returns the firing order by event id.
func play(data []byte, q scheduler, budget int) []int {
	s := &script{data: data, q: q}
	s.nres = int(s.byte()) % 5
	for n := s.byte() % 64; n > 0; n-- {
		s.schedule()
	}
	q.run(s, budget)
	return s.order
}

// refScheduler is the reference: every event in one container/heap, a
// resource reduced to the time it is busy until.
type refScheduler struct {
	t    core.Micros
	seq  uint64
	h    refHeap
	busy [4]core.Micros
}

func (r *refScheduler) now() core.Micros { return r.t }

func (r *refScheduler) call(t core.Micros, id int) {
	r.seq++
	heap.Push(&r.h, &refEvent{at: t, seq: r.seq, id: id})
}

func (r *refScheduler) serve(res int, cost core.Micros, id int) {
	start := r.busy[res]
	if r.t > start {
		start = r.t
	}
	r.busy[res] = start + cost
	r.call(start+cost, id)
}

func (r *refScheduler) run(s *script, budget int) int {
	n := 0
	for r.h.Len() > 0 && (budget == 0 || n < budget) {
		ev := heap.Pop(&r.h).(*refEvent)
		r.t = ev.at
		s.fire(ev.id)
		n++
	}
	return n
}

// engScheduler drives the engine under test. It must be handed a fresh or
// just-Reset engine: it binds its own resources.
type engScheduler struct {
	e   *Engine
	s   *script
	res [4]Resource
}

func newEngScheduler(e *Engine) *engScheduler {
	q := &engScheduler{e: e}
	for i := range q.res {
		q.res[i] = e.NewResource()
	}
	return q
}

func (q *engScheduler) now() core.Micros { return q.e.Now() }

func (q *engScheduler) call(t core.Micros, id int) {
	q.e.Call(t, engFire, q, int64(id), -1)
}

func (q *engScheduler) serve(res int, cost core.Micros, id int) {
	q.res[res].Call(cost, engFire, q, int64(id), int64(res))
}

func engFire(obj any, id, res int64) {
	q := obj.(*engScheduler)
	if res >= 0 {
		q.res[res].Release()
	}
	q.s.fire(int(id))
}

func (q *engScheduler) run(s *script, budget int) int {
	q.s = s
	return q.e.Run(budget)
}

func sameOrder(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEngineMatchesReferenceHeap drives the engine and the reference with
// the same random scripts — lane-less events only, one resource, several —
// on a fresh engine each time, and demands bit-identical firing order.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	rng := NewRNG(1)
	for i := 0; i < 600; i++ {
		data := randomScript(rng, i%5)
		got := play(data, newEngScheduler(NewEngine()), 0)
		want := play(data, &refScheduler{}, 0)
		if !sameOrder(got, want) {
			t.Fatalf("script %d (%d resources): order\n got %v\nwant %v", i, i%5, got, want)
		}
	}
}

// TestEngineMatchesReferenceHeapReused holds one engine through every
// script, as a sweep worker does: most runs are cut short so the Reset
// before the next one finds events still pending, in the heap and in lanes,
// and rings that have grown and wrapped.
func TestEngineMatchesReferenceHeapReused(t *testing.T) {
	rng := NewRNG(2)
	e := NewEngine()
	grew := false
	for i := 0; i < 600; i++ {
		data := randomScript(rng, 1+i%4)
		budget := rng.Intn(80) // 0 runs dry
		e.Reset()
		if e.Now() != 0 || e.Pending() != 0 || e.PeakHeap() != 0 {
			t.Fatalf("reset engine: now=%v pending=%d peak=%d", e.Now(), e.Pending(), e.PeakHeap())
		}
		got := play(data, newEngScheduler(e), budget)
		want := play(data, &refScheduler{}, budget)
		if !sameOrder(got, want) {
			t.Fatalf("script %d: order\n got %v\nwant %v", i, got, want)
		}
		for _, l := range e.lanes {
			grew = grew || len(l.ring) > minLaneCap
		}
	}
	if !grew {
		t.Error("no script grew a lane past its first capacity; the scripts no longer cover ring growth")
	}
}

// randomScript draws a schedule script for nres resources: many up-front
// events, then a long tail of bytes for the callbacks to read.
func randomScript(rng *RNG, nres int) []byte {
	data := make([]byte, 2+rng.Intn(400))
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	data[0] = byte(nres)
	return data
}

// FuzzEngineOrder runs arbitrary bytes as a schedule script against the
// reference, on a fresh engine and again on the same engine after a Reset.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 9, 0, 3, 0, 3, 0, 0, 0, 7, 0, 1, 2, 0, 0, 0, 1})
	f.Add([]byte{1, 40, 1, 0, 1, 0, 1, 1, 1, 0, 1, 2, 1, 0, 2, 1, 3, 0, 1})
	f.Add([]byte{4, 63, 1, 2, 2, 2, 3, 2, 4, 2, 0, 2, 1, 2, 2, 1, 0, 0, 3, 5, 2, 4, 7, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := play(data, &refScheduler{}, 0)
		e := NewEngine()
		if got := play(data, newEngScheduler(e), 0); !sameOrder(got, want) {
			t.Fatalf("fresh engine: order\n got %v\nwant %v", got, want)
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending() = %d after the queue drained", e.Pending())
		}
		e.Reset()
		if got := play(data, newEngScheduler(e), 0); !sameOrder(got, want) {
			t.Fatalf("reused engine: order\n got %v\nwant %v", got, want)
		}
	})
}

// TestLaneGrowsWhileWrapped grows a ring whose head is not at its start:
// the events must come out in the order they went in.
func TestLaneGrowsWhileWrapped(t *testing.T) {
	e := NewEngine()
	r := e.NewResource()
	var got []int64
	rec := func(_ any, id, _ int64) {
		r.Release()
		got = append(got, id)
	}
	id := int64(0)
	add := func(n int) {
		for ; n > 0; n-- {
			r.Call(1, rec, nil, id, 0)
			id++
		}
	}
	add(minLaneCap)
	e.Run(minLaneCap / 2) // head moves to the middle of the ring
	add(minLaneCap)       // wraps, then outgrows the first capacity
	if want := minLaneCap + minLaneCap/2; e.Pending() != want {
		t.Errorf("Pending() = %d, want %d", e.Pending(), want)
	}
	e.Run(0)
	if len(got) != 2*minLaneCap {
		t.Fatalf("fired %d events, want %d", len(got), 2*minLaneCap)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("firing order %v, want ascending", got)
		}
	}
	if len(e.lanes[0].ring) != 2*minLaneCap {
		t.Errorf("ring capacity %d, want %d", len(e.lanes[0].ring), 2*minLaneCap)
	}
}

// stepPayload is the typed-callback payload used by the allocation tests:
// a chain of events, lane-less or on a resource's lane.
type stepPayload struct {
	eng *Engine
	res *Resource // nil: lane-less
	n   int
}

func (p *stepPayload) schedule(left int64) {
	if p.res != nil {
		p.res.Call(1, stepAction, p, left, 0)
		return
	}
	p.eng.CallAfter(1, stepAction, p, left, 0)
}

func stepAction(obj any, left, _ int64) {
	p := obj.(*stepPayload)
	p.n++
	if p.res != nil {
		p.res.Release()
	}
	if left > 0 {
		p.schedule(left - 1)
	}
}

// bothPaths runs f for a lane-less chain and for one on a resource's lane.
func bothPaths(t *testing.T, f func(t *testing.T, p *stepPayload)) {
	t.Run("laneless", func(t *testing.T) {
		f(t, &stepPayload{eng: NewEngine()})
	})
	t.Run("lane", func(t *testing.T) {
		e := NewEngine()
		r := e.NewResource()
		f(t, &stepPayload{eng: e, res: &r})
	})
}

// TestEngineSteadyStateZeroAllocs pins the engine's claim: scheduling and
// stepping closure-free events in steady state performs zero heap
// allocations per event once the heap, the slab and the rings have warmed
// up.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	bothPaths(t, func(t *testing.T, p *stepPayload) {
		// Warm up: grow the arenas to peak depth.
		for i := 0; i < 64; i++ {
			p.schedule(0)
		}
		p.eng.Run(0)

		avg := testing.AllocsPerRun(1000, func() {
			p.schedule(0)
			if !p.eng.Step() {
				t.Fatal("no event to step")
			}
		})
		if avg != 0 {
			t.Errorf("steady-state schedule+step allocates %.2f allocs/op, want 0", avg)
		}
	})
}

// TestEngineChainZeroAllocs runs a self-rescheduling chain — the simulator's
// dominant pattern — and checks the whole chain allocates nothing.
func TestEngineChainZeroAllocs(t *testing.T) {
	bothPaths(t, func(t *testing.T, p *stepPayload) {
		p.schedule(8) // warm the arenas
		p.eng.Run(0)
		avg := testing.AllocsPerRun(200, func() {
			p.schedule(64)
			p.eng.Run(0)
		})
		if avg != 0 {
			t.Errorf("event chain allocates %.2f allocs/run, want 0", avg)
		}
	})
}

// TestEngineResetKeepsRings: a reused engine regrows nothing — binding the
// same resources and scheduling the same depth after a Reset allocates
// nothing at all.
func TestEngineResetKeepsRings(t *testing.T) {
	e := NewEngine()
	var r Resource
	p := &stepPayload{eng: e, res: &r}
	round := func() {
		e.Reset()
		r = e.NewResource()
		for i := 0; i < 3*minLaneCap; i++ {
			p.schedule(0)
		}
		e.Run(0)
	}
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("a run on a reset engine allocates %.2f allocs, want 0", avg)
	}
}

func TestEngineCallNilActionPanics(t *testing.T) {
	for name, schedule := range map[string]func(e *Engine){
		"laneless": func(e *Engine) { e.Call(1, nil, nil, 0, 0) },
		"lane": func(e *Engine) {
			r := e.NewResource()
			r.Call(1, nil, nil, 0, 0)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("scheduling a nil Action did not panic")
				}
			}()
			schedule(NewEngine())
		})
	}
}
