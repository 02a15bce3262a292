// Package phttp's root benchmark harness: one benchmark per table/figure of
// the paper plus micro-benchmarks of the core data structures and an
// ablation of extended LARD's design knobs.
//
// Figure benchmarks report the reproduced metric through b.ReportMetric
// (req/s, Mb/s or KB) so `go test -bench` output doubles as a compact
// regeneration of the evaluation:
//
//	go test -bench=Fig -benchmem
//
// The full-resolution sweeps (all cluster sizes, full trace) live in
// cmd/phttp-sim, cmd/phttp-analytic and cmd/phttp-bench; the benchmarks here
// use scaled-down workloads so the whole suite runs in minutes.
package phttp

import (
	"bufio"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"phttp/internal/analytic"
	"phttp/internal/cache"
	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/httpmsg"
	"phttp/internal/loadgen"
	"phttp/internal/policy"
	"phttp/internal/server"
	"phttp/internal/sim"
	"phttp/internal/simcore"
	"phttp/internal/trace"
)

// benchTrace is shared by the simulation benchmarks.
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

// --- Figure 3: single back-end delay/throughput vs offered load ---

func BenchmarkFig3DelayCurve(b *testing.B) {
	tr := benchTrace()
	for i := 0; i < b.N; i++ {
		thr, delay, err := sim.DelaySweep(core.Apache, []int{1, 16, 64}, tr)
		if err != nil {
			b.Fatal(err)
		}
		last := len(thr.Points) - 1
		b.ReportMetric(thr.Points[last].Y, "req/s@64conns")
		b.ReportMetric(delay.Points[last].Y, "ms@64conns")
	}
}

// --- Figures 5 and 6: analytic bandwidth and crossover ---

func BenchmarkFig5ApacheAnalytic(b *testing.B) {
	cfg := analytic.DefaultConfig(core.Apache)
	for i := 0; i < b.N; i++ {
		multi, fwd := cfg.Bandwidth(8 << 10)
		cross := cfg.Crossover(200 << 10)
		b.ReportMetric(multi, "multi-Mb/s@8KB")
		b.ReportMetric(fwd, "BEfwd-Mb/s@8KB")
		b.ReportMetric(float64(cross)/1024, "crossover-KB")
	}
}

func BenchmarkFig6FlashAnalytic(b *testing.B) {
	cfg := analytic.DefaultConfig(core.Flash)
	for i := 0; i < b.N; i++ {
		multi, fwd := cfg.Bandwidth(8 << 10)
		cross := cfg.Crossover(200 << 10)
		b.ReportMetric(multi, "multi-Mb/s@8KB")
		b.ReportMetric(fwd, "BEfwd-Mb/s@8KB")
		b.ReportMetric(float64(cross)/1024, "crossover-KB")
	}
}

// --- Figures 7 and 8: simulated cluster throughput ---

func benchCluster(b *testing.B, kind core.ServerKind, comboName string, nodes int) {
	combo, err := sim.ComboByName(comboName)
	if err != nil {
		b.Fatal(err)
	}
	tr := benchTrace()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(nodes, combo)
		cfg.Server = server.CostsFor(kind)
		res, err := sim.Run(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput, "req/s")
		b.ReportMetric(100*res.HitRate, "hit%")
	}
}

func BenchmarkFig7ApacheCluster(b *testing.B) {
	for _, combo := range []string{
		"zeroCost-extLARD-PHTTP", "multiHandoff-extLARD-PHTTP",
		"BEforward-extLARD-PHTTP", "simple-LARD", "simple-LARD-PHTTP",
		"WRR-PHTTP", "WRR",
	} {
		for _, nodes := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/n%d", combo, nodes), func(b *testing.B) {
				benchCluster(b, core.Apache, combo, nodes)
			})
		}
	}
}

func BenchmarkFig8FlashCluster(b *testing.B) {
	for _, combo := range []string{
		"zeroCost-extLARD-PHTTP", "BEforward-extLARD-PHTTP",
		"simple-LARD", "WRR",
	} {
		for _, nodes := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/n%d", combo, nodes), func(b *testing.B) {
				benchCluster(b, core.Flash, combo, nodes)
			})
		}
	}
}

// --- Figure 13: the real prototype over loopback sockets ---

func BenchmarkFig13Prototype(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy string
		mech   core.Mechanism
		http10 bool
	}{
		{"BEforward-extLARD-PHTTP", "extlard", core.BEForwarding, false},
		{"simple-LARD", "lard", core.SingleHandoff, true},
		{"WRR-PHTTP", "wrr", core.SingleHandoff, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tcfg := trace.DefaultSynthConfig()
			tcfg.Connections = 1200
			tr := trace.NewSynth(tcfg).Generate()
			for i := 0; i < b.N; i++ {
				cfg := cluster.DefaultConfig(3, tr.Sizes)
				cfg.Policy = tc.policy
				cfg.Mechanism = tc.mech
				cfg.TimeScale = 50
				cl, err := cluster.Start(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := loadgen.Run(loadgen.Config{
					Addr: cl.Addr(), Trace: tr, HTTP10: tc.http10,
					Concurrency: 64, WarmupFrac: 0.2,
					IOTimeout: time.Minute,
				})
				cl.Close()
				if err != nil {
					b.Fatal(err)
				}
				// Normalized to the modeled hardware speed.
				b.ReportMetric(res.Throughput/50, "req/s(normalized)")
			}
		})
	}
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

func BenchmarkLRUInsertLookup(b *testing.B) {
	c := newBenchLRU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := core.Target(fmt.Sprintf("/t%d", i%10000))
		if !c.Lookup(t) {
			c.Insert(t, int64(i%20000)+1)
		}
	}
}

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

func BenchmarkTraceReconstruct(b *testing.B) {
	cfg := trace.SmallSynthConfig()
	cfg.Connections = 2000
	entries := trace.NewSynth(cfg).GenerateEntries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Reconstruct(entries, trace.DefaultIdleTimeout, trace.DefaultBatchWindow)
	}
}

func newBenchLRU() *cache.LRU { return cache.NewLRU(64 << 20) }
