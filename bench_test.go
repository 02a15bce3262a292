// Package phttp's root benchmarks: micro-benchmarks of the core data
// structures (the extLARD decision, the HTTP parser, the simcore event
// engine, trace construction) and an ablation of extended
// LARD's design knobs (DESIGN.md §7) on the simulator.
//
//	go test -run '^$' -bench . -benchmem
//
// The paper's figures are regenerated by cmd/phttp-analytic (5, 6),
// cmd/phttp-sim (3, 7, 8) and cmd/phttp-bench (13); the program's
// end-to-end performance is measured by the benchmark module (benchmark/).
package phttp

import (
	"bufio"
	"fmt"
	"strings"
	"sync"
	"testing"

	"phttp/internal/core"
	"phttp/internal/httpmsg"
	"phttp/internal/policy"
	"phttp/internal/sim"
	"phttp/internal/simcore"
	"phttp/internal/trace"
)

// benchTrace is shared by the ablation benchmarks.
var (
	benchTraceOnce sync.Once
	benchTraceVal  *trace.Trace
)

func benchTrace() *trace.Trace {
	benchTraceOnce.Do(func() {
		cfg := trace.DefaultSynthConfig()
		cfg.Connections = 12000
		benchTraceVal = trace.NewSynth(cfg).Generate()
	})
	return benchTraceVal
}

// --- Ablation: extended LARD design knobs (DESIGN.md §7) ---

// BenchmarkAblationDiskThreshold sweeps the disk-queue "low" threshold that
// gates local serving and replication: 0 disables local replication
// entirely, large values approximate simple LARD's stickiness.
func BenchmarkAblationDiskThreshold(b *testing.B) {
	tr := benchTrace()
	for _, thresh := range []int{0, 1, 2, 4, 16} {
		b.Run(fmt.Sprintf("diskLow=%d", thresh), func(b *testing.B) {
			combo, _ := sim.ComboByName("BEforward-extLARD-PHTTP")
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(4, combo)
				cfg.Params.DiskQueueLow = thresh
				res, err := sim.Run(cfg, tr)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Throughput, "req/s")
			}
		})
	}
}

// BenchmarkAblationLOverload sweeps the overload knee of the balancing
// metric: too low degrades to load balancing, too high lets queues build.
func BenchmarkAblationLOverload(b *testing.B) {
	tr := benchTrace()
	for _, lo := range []float64{40, 80, 130, 260} {
		b.Run(fmt.Sprintf("Loverload=%.0f", lo), func(b *testing.B) {
			combo, _ := sim.ComboByName("BEforward-extLARD-PHTTP")
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(4, combo)
				cfg.Params.LOverload = lo
				res, err := sim.Run(cfg, tr)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Throughput, "req/s")
			}
		})
	}
}

// --- Micro-benchmarks ---

func BenchmarkPolicyExtLARDAssign(b *testing.B) {
	p := policy.NewExtLARD(8, 85<<20, policy.DefaultParams(), core.BEForwarding)
	in := core.NewInterner()
	req := func(t core.Target, size int64) core.Request {
		return core.Request{Target: t, ID: in.Intern(t), Size: size}
	}
	conns := make([]*core.ConnState, 64)
	for i := range conns {
		conns[i] = core.NewConnState(core.ConnID(i))
		target := core.Target(fmt.Sprintf("/p%d", i))
		p.ConnOpen(conns[i], req(target, 8<<10))
		p.AssignBatch(conns[i], core.Batch{req(target, 8<<10)})
	}
	batch := core.Batch{
		req("/o1", 4<<10), req("/o2", 4<<10), req("/o3", 4<<10),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AssignBatch(conns[i%len(conns)], batch)
	}
}

func BenchmarkHTTPRequestParse(b *testing.B) {
	raw := "GET /docs/page01234.html HTTP/1.1\r\nHost: cluster\r\nAccept: */*\r\n\r\n"
	big := strings.Repeat(raw, 64)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			br := bufio.NewReader(strings.NewReader(big))
			b.StartTimer()
			benchReader = br
		}
		if _, err := httpmsg.ReadRequest(benchReader); err != nil {
			b.Fatal(err)
		}
	}
}

var benchReader *bufio.Reader

// runFunc carries a func() as an event's payload: what a caller that wants a
// closure per event pays on top of the typed path.
func runFunc(obj any, _, _ int64) { obj.(func())() }

// BenchmarkEventEngine schedules a closure per event through Call; the
// closure itself is made once, so the chain allocates nothing.
func BenchmarkEventEngine(b *testing.B) {
	e := simcore.NewEngine()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			e.CallAfter(1, runFunc, fn, 0, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.CallAfter(1, runFunc, fn, 0, 0)
	e.Run(0)
}

// engineChain is the typed-callback payload of BenchmarkEventEngineTyped: a
// chain of events, lane-less or on a resource's lane.
type engineChain struct {
	eng *simcore.Engine
	res *simcore.Resource // nil: lane-less
	n   int
	max int
}

func (c *engineChain) schedule() {
	if c.res != nil {
		c.res.Call(1, engineChainStep, c, 0, 0)
		return
	}
	c.eng.CallAfter(1, engineChainStep, c, 0, 0)
}

func engineChainStep(obj any, _, _ int64) {
	c := obj.(*engineChain)
	c.n++
	if c.res != nil {
		c.res.Release()
	}
	if c.n < c.max {
		c.schedule()
	}
}

// BenchmarkEventEngineTyped is the simulator's actual scheduling pattern —
// closure-free typed callbacks, nearly all of them resource completions —
// and must report 0 allocs/op in steady state (also pinned by
// TestEngineSteadyStateZeroAllocs).
func BenchmarkEventEngineTyped(b *testing.B) {
	b.Run("laneless", func(b *testing.B) {
		c := &engineChain{eng: simcore.NewEngine(), max: b.N}
		b.ReportAllocs()
		b.ResetTimer()
		c.schedule()
		c.eng.Run(0)
	})
	b.Run("lane", func(b *testing.B) {
		e := simcore.NewEngine()
		r := e.NewResource()
		c := &engineChain{eng: e, res: &r, max: b.N}
		b.ReportAllocs()
		b.ResetTimer()
		c.schedule()
		e.Run(0)
	})
}

func BenchmarkTraceGenerate(b *testing.B) {
	cfg := trace.SmallSynthConfig()
	cfg.Connections = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trace.NewSynth(cfg).Generate()
		b.ReportMetric(float64(tr.Requests()), "requests")
	}
}
