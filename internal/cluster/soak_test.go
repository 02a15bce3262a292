package cluster_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"phttp/internal/cache"
	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/loadgen"
	"phttp/internal/policy"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// TestCappedDispatchMatchesPinnedReference replays one unbounded-URL
// workload through two dispatch engines in lockstep: one with a capped
// interner (the long-haul front-end configuration) and one uncapped
// reference. Past the cap the capped engine gets NoTarget; the reference
// is handed a never-seen target in its place (zero bytes, unmapped again
// after the batch), i.e. exactly the placement of a target no node maps.
// Every dispatch decision must agree, a connection opened on an overflow
// target must leave every node's MappedTargets unchanged, and in the end
// the two mappings hold the same beliefs per node.
func TestCappedDispatchMatchesPinnedReference(t *testing.T) {
	const (
		maxTargets = 512
		nodes      = 4
		hotSet     = 64
		reqSize    = 8 << 10 // the front-end's nominal mapping size
	)
	conns := 12_000
	if testing.Short() {
		conns = 1_500
	}
	for _, tc := range []struct {
		name string
		mech core.Mechanism
	}{
		{"lard", core.SingleHandoff},
		{"lardr", core.SingleHandoff},
		{"extlard", core.BEForwarding},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mkEngine := func(maxT int) (*dispatch.Engine, *cache.Mapping) {
				eng, err := dispatch.NewEngine(dispatch.Spec{
					Policy:     tc.name,
					Nodes:      nodes,
					CacheBytes: 256 << 10, // 32 mapping entries per node: beliefs age out
					Params:     policy.DefaultParams(),
					Mechanism:  tc.mech,
					MaxTargets: maxT,
				})
				if err != nil {
					t.Fatal(err)
				}
				return eng, eng.Policy().(interface{ Mapping() *cache.Mapping }).Mapping()
			}
			capped, cm := mkEngine(maxTargets)
			pinned, pm := mkEngine(0)
			mapped := func(m *cache.Mapping) (per [nodes]int) {
				for n := range per {
					per[n] = m.MappedTargets(core.NodeID(n))
				}
				return per
			}

			rng := rand.New(rand.NewSource(7))
			next := func(i int) core.Target {
				if rng.Intn(2) == 0 {
					return core.Target(fmt.Sprintf("/hot%d", rng.Intn(hotSet)))
				}
				return core.Target(fmt.Sprintf("/once-%d-%d", i, rng.Intn(1<<20)))
			}
			overflowed, fresh := 0, 0
			var transient []core.TargetID
			for i := 0; i < conns; i++ {
				nBatches := rng.Intn(3) + 1
				var cc, cp *dispatch.Conn
				for b := 0; b < nBatches; b++ {
					batchC := make(core.Batch, rng.Intn(4)+1)
					batchP := make(core.Batch, len(batchC))
					for j := range batchC {
						tgt := next(i)
						batchC[j] = core.Request{Target: tgt, ID: capped.Interner().Intern(tgt), Size: reqSize}
						batchP[j] = core.Request{Target: tgt, ID: pinned.Interner().Intern(tgt), Size: reqSize}
						if batchC[j].ID == core.NoTarget {
							overflowed++
							fresh++
							never := core.Target(fmt.Sprintf("/never-mapped-%d", fresh))
							batchP[j] = core.Request{Target: never, ID: pinned.Interner().Intern(never)}
							transient = append(transient, batchP[j].ID)
						}
					}
					if b == 0 {
						before := mapped(cm)
						var hc, hp core.NodeID
						cc, hc = capped.ConnOpen(batchC[0])
						cp, hp = pinned.ConnOpen(batchP[0])
						if hc != hp {
							t.Fatalf("conn %d (%q): handling diverged: capped %v, reference %v", i, batchC[0].Target, hc, hp)
						}
						if after := mapped(cm); batchC[0].ID == core.NoTarget && after != before {
							t.Fatalf("conn %d: opening on an overflow target changed MappedTargets %v -> %v", i, before, after)
						}
					}
					ac := capped.AssignBatch(cc, batchC)
					ap := pinned.AssignBatch(cp, batchP)
					for j := range ac {
						if ac[j] != ap[j] {
							t.Fatalf("conn %d batch %d req %d (%q): capped %+v, reference %+v",
								i, b, j, batchC[j].Target, ac[j], ap[j])
						}
					}
					for _, id := range transient {
						for n := 0; n < nodes; n++ {
							pm.Unmap(id, core.NodeID(n))
						}
					}
					transient = transient[:0]
				}
				if rng.Intn(64) == 0 {
					// Same disk feedback to both: flips extLARD between
					// serve-local and forward.
					n, q := core.NodeID(rng.Intn(nodes)), rng.Intn(2*policy.DefaultParams().DiskQueueLow)
					capped.ReportDiskQueue(n, q)
					pinned.ReportDiskQueue(n, q)
				}
				capped.ConnClose(cc)
				pinned.ConnClose(cp)
			}

			in := capped.Interner()
			if got, hw := in.Len(), int(in.HighWater()); got != maxTargets || hw != maxTargets {
				t.Errorf("capped table holds %d targets (high water %d), want the cap %d", got, hw, maxTargets)
			}
			if overflowed == 0 {
				t.Error("no request overflowed the cap despite an unbounded URL stream")
			}
			if c, p := mapped(cm), mapped(pm); c != p {
				t.Errorf("MappedTargets per node: capped %v, reference %v", c, p)
			}
		})
	}
}

// churnTrace builds the soak workload: every connection mixes requests for
// a small hot set with URLs never seen before (all servable, so end-to-end
// verification covers them), giving the front-end an effectively unbounded
// target stream.
func churnTrace(conns, hotSet int) *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	tr := &trace.Trace{Sizes: make(map[core.Target]int64)}
	for i := 0; i < hotSet; i++ {
		tr.Sizes[core.Target(fmt.Sprintf("/hot%d", i))] = int64(rng.Intn(8<<10)) + 512
	}
	uniq := 0
	for i := 0; i < conns; i++ {
		var batches []core.Batch
		for b := rng.Intn(2) + 1; b > 0; b-- {
			batch := make(core.Batch, rng.Intn(3)+1)
			for j := range batch {
				var tgt core.Target
				if rng.Intn(3) == 0 {
					tgt = core.Target(fmt.Sprintf("/hot%d", rng.Intn(hotSet)))
				} else {
					tgt = core.Target(fmt.Sprintf("/soak/%d", uniq))
					uniq++
				}
				size, ok := tr.Sizes[tgt]
				if !ok {
					size = int64(rng.Intn(4<<10)) + 256
					tr.Sizes[tgt] = size
				}
				batch[j] = core.Request{Target: tgt, Size: size}
			}
			batches = append(batches, batch)
		}
		tr.Conns = append(tr.Conns, core.Connection{Batches: batches})
	}
	return tr
}

// TestFrontEndUnboundedURLSoak is the acceptance soak: an unbounded-URL
// workload replayed through the real prototype front-end (parse-time
// interning, capped interner, handoff data path) with end-to-end
// verification on — every response must match the string-keyed catalog,
// byte for byte, including the targets past the cap, which are served by
// name — while the dispatcher's target table and ID space stay bounded by
// the configured cap. A second run of only new targets then gets no IDs
// and writes no mapping entry.
func TestFrontEndUnboundedURLSoak(t *testing.T) {
	const (
		maxTargets = 256
		lateConns  = 50
	)
	conns := 1_000
	if testing.Short() {
		conns = 250
	}
	tr := churnTrace(conns, 32)
	late := &trace.Trace{Sizes: tr.Sizes}
	for i := 0; i < lateConns; i++ {
		tgt := core.Target(fmt.Sprintf("/late/%d", i))
		tr.Sizes[tgt] = int64(i%7)<<10 + 300
		late.Conns = append(late.Conns, core.Connection{Batches: []core.Batch{{{Target: tgt, Size: tr.Sizes[tgt]}}}})
	}

	cfg := cluster.DefaultConfig(2, tr.Sizes)
	cfg.Policy = "lard"
	cfg.Mechanism = core.SingleHandoff
	cfg.CacheBytes = 256 << 10
	cfg.MaxTargets = maxTargets
	cfg.SimulateCPU = false
	cfg.TimeScale = 200
	cfg.Disk = server.DefaultDisk()
	cfg.BatchWindow = time.Millisecond
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	eng := cl.FE.Engine()
	if eng.Interner().Cap() != maxTargets {
		t.Fatalf("front-end interner capped at %d, want %d", eng.Interner().Cap(), maxTargets)
	}
	replay := func(tr *trace.Trace) {
		t.Helper()
		res, err := loadgen.Run(loadgen.Config{
			Addr:        cl.Addr(),
			Trace:       tr,
			Concurrency: 8,
			Verify:      true,
			IOTimeout:   20 * time.Second,
		})
		if err != nil {
			t.Fatalf("loadgen: %v", err)
		}
		if res.Errors != 0 {
			t.Errorf("%d responses diverged from the string-keyed reference catalog", res.Errors)
		}
		if want := int64(tr.Requests()); res.Requests != want {
			t.Errorf("served %d requests, want %d", res.Requests, want)
		}
	}
	replay(tr)
	if got := cl.FE.PolicyName(); got != "lard" {
		t.Errorf("PolicyName() = %q, want lard", got)
	}
	if got := cl.FE.Connections(); got < int64(conns) {
		t.Errorf("front-end accepted %d connections, want ≥ %d", got, conns)
	}
	if u := cl.FE.Utilization(); u < 0 || u > 1 {
		t.Errorf("Utilization() = %v, want within [0,1]", u)
	}

	in := eng.Interner()
	if got := in.Len(); got > maxTargets {
		t.Errorf("interner table holds %d targets after soak, cap %d", got, maxTargets)
	}
	if hw := int(in.HighWater()); hw > maxTargets {
		t.Errorf("per-ID slice bound (high water) is %d after soak, cap %d", hw, maxTargets)
	}
	if distinct := len(tr.Sizes); distinct <= maxTargets {
		t.Fatalf("workload has only %d distinct targets; soak is not unbounded", distinct)
	}
	m := cl.FE.Policy().(*policy.LARD).Mapping()
	var before []int
	for n := 0; n < m.Nodes(); n++ {
		if b := m.MappedBytes(core.NodeID(n)); b > cfg.CacheBytes {
			t.Errorf("node %d mapping over budget: %d > %d", n, b, cfg.CacheBytes)
		}
		before = append(before, m.MappedTargets(core.NodeID(n)))
	}

	// The table is full: new targets are served by name, get no ID and
	// leave the mapping as it was.
	replay(late)
	for n := 0; n < m.Nodes(); n++ {
		if got := m.MappedTargets(core.NodeID(n)); got != before[n] {
			t.Errorf("node %d: %d mapped targets after the late run, %d before", n, got, before[n])
		}
	}
	for _, c := range late.Conns {
		if id, ok := in.Lookup(c.Batches[0][0].Target); ok {
			t.Errorf("late target %q got ID %d past the cap", c.Batches[0][0].Target, id)
		}
	}
}
