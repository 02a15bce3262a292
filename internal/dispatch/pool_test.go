package dispatch

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"phttp/internal/core"
	"phttp/internal/policy"
)

// TestDispatchSteadyStateZeroAllocs pins the ROADMAP claim that closed out
// the last ~0.3 allocs/event: with connection records pooled across the
// run, a warmed engine opens, assigns and closes connections without
// allocating, for every registered policy. Requests are pre-interned (the
// drivers intern at the edge), so the measured loop is exactly the
// simulator's and the prototype's steady-state dispatch path.
func TestDispatchSteadyStateZeroAllocs(t *testing.T) {
	mechs := map[string]core.Mechanism{
		"wrr":     core.SingleHandoff,
		"lard":    core.SingleHandoff,
		"lardr":   core.SingleHandoff,
		"extlard": core.BEForwarding,
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			spec := testSpec(name)
			spec.Mechanism = mechs[name]
			eng, err := NewEngine(spec)
			if err != nil {
				t.Fatal(err)
			}
			in := eng.Interner()
			batch := make(core.Batch, 4)
			for i := range batch {
				batch[i] = internedReq(in, fmt.Sprintf("/t%d", i), 8<<10)
			}
			lifecycle := func() {
				c, _ := eng.ConnOpen(batch[0])
				eng.AssignBatch(c, batch)
				eng.ConnClose(c)
			}
			// Warm up: pool a record, grow its buffers, populate the
			// mapping so steady-state inserts hit resident entries.
			for i := 0; i < 64; i++ {
				lifecycle()
			}
			if avg := testing.AllocsPerRun(1000, lifecycle); avg != 0 {
				t.Errorf("steady-state connection lifecycle allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestConnRecordsRecycled verifies the pool actually recycles: a record
// freed by ConnClose is handed to the next ConnOpen with fresh bookkeeping
// but its grown buffers intact.
func TestConnRecordsRecycled(t *testing.T) {
	eng, err := NewEngine(testSpec("extlard"))
	if err != nil {
		t.Fatal(err)
	}
	in := eng.Interner()
	batch := make(core.Batch, 8)
	for i := range batch {
		batch[i] = internedReq(in, fmt.Sprintf("/r%d", i), 4<<10)
	}
	c1, _ := eng.ConnOpen(batch[0])
	eng.AssignBatch(c1, batch)
	grown := cap(c1.State().Assignments)
	if grown < len(batch) {
		t.Fatalf("assignment buffer did not grow: cap %d", grown)
	}
	id1 := c1.ID()
	eng.ConnClose(c1)

	c2, _ := eng.ConnOpen(batch[0])
	if c2 != c1 {
		t.Error("ConnOpen did not recycle the pooled record")
	}
	if c2.ID() == id1 {
		t.Error("recycled record kept the old connection ID")
	}
	if c2.Handling() == core.NoNode {
		t.Error("recycled record not re-opened")
	}
	if got := c2.State().Requests; got != 0 {
		t.Errorf("recycled record kept %d requests of bookkeeping", got)
	}
	if cap(c2.State().Assignments) != grown {
		t.Errorf("recycled record lost its buffers: cap %d, want %d", cap(c2.State().Assignments), grown)
	}
	eng.ConnClose(c2)
}

// TestConnOpenPanicsOnUnInternedRequest guards the engine's edge contract:
// lazy interning is gone, so a driver that forgets to intern must fail
// loudly at the first connection, not corrupt policy tables silently.
func TestConnOpenPanicsOnUnInternedRequest(t *testing.T) {
	eng, err := NewEngine(testSpec("wrr"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("ConnOpen accepted a request with no interned ID")
		}
	}()
	eng.ConnOpen(core.Request{Target: "/raw", Size: 1})
}

// TestEngineCappedConcurrentStress is the capped-interner variant of the
// concurrent stress: parallel connection handlers intern at the edge and
// dispatch over a target universe far larger than the cap, so most
// requests overflow it (NoTarget). Under -race this covers the interner's
// full-table path against concurrent dispatch; afterwards the table is
// exactly the cap, load accounting balances, and no mapping entry exists
// for anything but an interned target.
func TestEngineCappedConcurrentStress(t *testing.T) {
	const (
		maxTargets = 4096
		universe   = 1 << 16
	)
	spec := testSpec("extlard")
	spec.Nodes = 8
	spec.Mechanism = core.BEForwarding
	spec.MaxTargets = maxTargets
	eng, err := NewEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Interner().Cap() != maxTargets {
		t.Fatalf("spec.MaxTargets gave an interner capped at %d", eng.Interner().Cap())
	}
	const (
		goroutines   = 8
		connsPerGoro = 300
	)
	var overflow sync.Map
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			in := eng.Interner()
			req := func() core.Request {
				r := internedReq(in, fmt.Sprintf("/u%d", rng.Intn(universe)), int64(rng.Intn(16<<10))+1)
				if r.ID == core.NoTarget {
					overflow.Store(r.Target, true)
				}
				return r
			}
			for i := 0; i < connsPerGoro; i++ {
				c, _ := eng.ConnOpen(req())
				for b := rng.Intn(3); b >= 0; b-- {
					batch := make(core.Batch, rng.Intn(4)+1)
					for j := range batch {
						batch[j] = req()
					}
					eng.AssignBatch(c, batch)
				}
				eng.ConnClose(c)
			}
		}(int64(g) + 1)
	}
	wg.Wait()

	in := eng.Interner()
	if got, hw := in.Len(), int(in.HighWater()); got != maxTargets || hw != maxTargets {
		t.Errorf("interner holds %d targets (high water %d) after churn, want the cap %d", got, hw, maxTargets)
	}
	overflowed := 0
	overflow.Range(func(k, _ any) bool {
		overflowed++
		if _, ok := in.Lookup(k.(core.Target)); ok {
			t.Errorf("overflow target %v was interned later", k)
		}
		return true
	})
	if overflowed == 0 {
		t.Error("no request overflowed the cap despite universe ≫ cap")
	}
	if eng.Active() != 0 {
		t.Errorf("Active() = %d after all closes", eng.Active())
	}
	loads := eng.Policy().Loads()
	for n := 0; n < loads.Nodes(); n++ {
		if c := loads.Conns(core.NodeID(n)); c != 0 {
			t.Errorf("node %d: %d connection counts leaked", n, c)
		}
	}
	m := eng.Policy().(*policy.ExtLARD).Mapping()
	for n := 0; n < m.Nodes(); n++ {
		if m.IsMapped(core.NoTarget, core.NodeID(n)) {
			t.Errorf("node %d holds a mapping entry for NoTarget", n)
		}
	}
}
