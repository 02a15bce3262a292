package sim

import (
	"math"
	"sync"
	"testing"

	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/trace"
)

// testTrace builds a moderately sized deterministic workload once; the
// qualitative assertions need enough requests for caches to mean something.
var (
	testTraceOnce sync.Once
	testTraceVal  *trace.Trace
)

func testTrace() *trace.Trace {
	testTraceOnce.Do(func() {
		cfg := trace.DefaultSynthConfig()
		cfg.Connections = 16000
		testTraceVal = trace.NewSynth(cfg).Generate()
	})
	return testTraceVal
}

func run(t *testing.T, nodes int, comboName string) Result {
	t.Helper()
	combo, err := ComboByName(comboName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(DefaultConfig(nodes, combo), testTrace())
	if err != nil {
		t.Fatalf("%s n=%d: %v", comboName, nodes, err)
	}
	return res
}

func TestRunCompletesAllCombos(t *testing.T) {
	for _, combo := range Combos() {
		res, err := Run(DefaultConfig(2, combo), testTrace())
		if err != nil {
			t.Fatalf("%s: %v", combo.Name, err)
		}
		if res.Throughput <= 0 || res.Requests <= 0 {
			t.Errorf("%s: empty result %+v", combo.Name, res)
		}
	}
}

func TestSingleNodeAllPoliciesEquivalent(t *testing.T) {
	// Paper: "With one server node the performance with HTTP/1.1 is
	// identical to HTTP/1.0 because the backend servers are disk bound
	// with all policies."
	base := run(t, 1, "WRR").Throughput
	for _, name := range []string{"WRR-PHTTP", "simple-LARD", "BEforward-extLARD-PHTTP"} {
		got := run(t, 1, name).Throughput
		if rel(got, base) > 0.05 {
			t.Errorf("%s single-node throughput %.0f differs from WRR %.0f by >5%%", name, got, base)
		}
	}
}

func TestLARDBeatsWRRAtScale(t *testing.T) {
	// Paper: LARD-family beats WRR by a large margin at 4+ nodes through
	// cache aggregation.
	lard := run(t, 6, "simple-LARD")
	wrr := run(t, 6, "WRR")
	if lard.Throughput < 1.7*wrr.Throughput {
		t.Errorf("simple-LARD (%.0f) not well above WRR (%.0f) at 6 nodes", lard.Throughput, wrr.Throughput)
	}
	if lard.HitRate < wrr.HitRate+0.1 {
		t.Errorf("LARD hit rate %.2f not clearly above WRR %.2f", lard.HitRate, wrr.HitRate)
	}
}

func TestExtLARDBeatsSimpleLARDWithPHTTP(t *testing.T) {
	// The headline result: extended LARD with BE forwarding on P-HTTP
	// beats simple LARD on HTTP/1.0 (paper: up to ~26%).
	ext := run(t, 4, "BEforward-extLARD-PHTTP")
	simple := run(t, 4, "simple-LARD")
	if ext.Throughput <= simple.Throughput {
		t.Errorf("extLARD-PHTTP (%.0f) did not beat simple-LARD (%.0f)", ext.Throughput, simple.Throughput)
	}
}

func TestSimpleLARDSuffersUnderPHTTP(t *testing.T) {
	// Paper: driving simple LARD with a P-HTTP workload loses
	// considerably at small/medium cluster sizes.
	phttp := run(t, 4, "simple-LARD-PHTTP")
	http10 := run(t, 4, "simple-LARD")
	if phttp.Throughput >= 0.9*http10.Throughput {
		t.Errorf("simple-LARD-PHTTP (%.0f) should lose clearly to simple-LARD (%.0f)", phttp.Throughput, http10.Throughput)
	}
}

func TestMechanismsWithinIdealBand(t *testing.T) {
	// Paper: extended LARD with both practical mechanisms lands near the
	// zero-cost ideal, and the two mechanisms are competitive with each
	// other.
	ideal := run(t, 4, "zeroCost-extLARD-PHTTP")
	multi := run(t, 4, "multiHandoff-extLARD-PHTTP")
	fwd := run(t, 4, "BEforward-extLARD-PHTTP")
	if multi.Throughput < 0.8*ideal.Throughput {
		t.Errorf("multiHandoff (%.0f) more than 20%% below ideal (%.0f)", multi.Throughput, ideal.Throughput)
	}
	if fwd.Throughput < 0.8*ideal.Throughput {
		t.Errorf("BEforward (%.0f) more than 20%% below ideal (%.0f)", fwd.Throughput, ideal.Throughput)
	}
	if rel(multi.Throughput, fwd.Throughput) > 0.15 {
		t.Errorf("mechanisms differ by >15%%: multi %.0f vs BEforward %.0f", multi.Throughput, fwd.Throughput)
	}
}

func TestWRRGainsLittleFromPHTTP(t *testing.T) {
	// Paper (simulation): WRR cannot capitalize on persistent
	// connections because it stays disk bound.
	wrr := run(t, 4, "WRR")
	phttp := run(t, 4, "WRR-PHTTP")
	if rel(wrr.Throughput, phttp.Throughput) > 0.1 {
		t.Errorf("WRR %.0f vs WRR-PHTTP %.0f differ by >10%%", wrr.Throughput, phttp.Throughput)
	}
	if wrr.DiskUtil < 0.9 {
		t.Errorf("WRR disk utilization %.2f, expected disk bound", wrr.DiskUtil)
	}
}

func TestThroughputScalesWithNodes(t *testing.T) {
	small := run(t, 2, "BEforward-extLARD-PHTTP")
	big := run(t, 6, "BEforward-extLARD-PHTTP")
	if big.Throughput < 2*small.Throughput {
		t.Errorf("6 nodes (%.0f) should be well above 2x 2 nodes (%.0f)", big.Throughput, small.Throughput)
	}
}

func TestRelayCloseToIdealWithFastFE(t *testing.T) {
	// Section 6.1: a relaying front-end that is not a bottleneck gets
	// only a few percent above BE forwarding.
	combo, err := ComboByName("relayFE-extLARD-PHTTP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4, combo)
	cfg.FESpeedup = 8
	relay, err := Run(cfg, testTrace())
	if err != nil {
		t.Fatal(err)
	}
	ideal := run(t, 4, "zeroCost-extLARD-PHTTP")
	if relay.Throughput > 1.02*ideal.Throughput {
		t.Errorf("relay (%.0f) exceeded ideal (%.0f)", relay.Throughput, ideal.Throughput)
	}
	fwd := run(t, 4, "BEforward-extLARD-PHTTP")
	if relay.Throughput < 0.9*fwd.Throughput {
		t.Errorf("fast-FE relay (%.0f) fell well below BE forwarding (%.0f)", relay.Throughput, fwd.Throughput)
	}
}

func TestExtLARDStatsPopulated(t *testing.T) {
	res := run(t, 4, "BEforward-extLARD-PHTTP")
	if res.LocalServes == 0 {
		t.Error("no local serves recorded")
	}
	if res.RemoteServes == 0 {
		t.Error("no remote serves recorded: BE forwarding never forwarded")
	}
	if res.Migrations != 0 {
		t.Error("BE forwarding recorded migrations")
	}
	multi := run(t, 4, "multiHandoff-extLARD-PHTTP")
	if multi.Migrations == 0 {
		t.Error("multiple handoff never migrated")
	}
}

func TestLoadSweepShape(t *testing.T) {
	res, err := RunGrid(loadConfigs([]int{1, 8, 64}), trace.NewWorkload(testTrace()), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3's shape: throughput saturates while delay keeps growing
	// with offered load.
	if !(res[1].Throughput > res[0].Throughput) {
		t.Errorf("throughput did not rise with load: %g, %g", res[0].Throughput, res[1].Throughput)
	}
	if !(res[2].MeanDelay > res[0].MeanDelay) {
		t.Errorf("delay did not grow with load: %d, %d", res[0].MeanDelay, res[2].MeanDelay)
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(2, Combos()[0])
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.Nodes = 0
	if bad.Validate() == nil {
		t.Error("accepted 0 nodes")
	}
	bad = good
	bad.WarmupFrac = 1.5
	if bad.Validate() == nil {
		t.Error("accepted warmup >= 1")
	}
	bad = good
	bad.Combo.Policy = "nonsense"
	if bad.Validate() == nil {
		t.Error("accepted unknown policy")
	}
}

func TestComboByNameErrors(t *testing.T) {
	if _, err := ComboByName("no-such-combo"); err == nil {
		t.Error("accepted unknown combo name")
	}
	for _, c := range Combos() {
		got, err := ComboByName(c.Name)
		if err != nil || got != c {
			t.Errorf("ComboByName(%q) = %+v, %v", c.Name, got, err)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	a := run(t, 3, "BEforward-extLARD-PHTTP")
	b := run(t, 3, "BEforward-extLARD-PHTTP")
	if a.Throughput != b.Throughput || a.HitRate != b.HitRate {
		t.Errorf("same inputs produced different results: %+v vs %+v", a, b)
	}
}

// TestReplicatedTierLocality pins the front-end tier's locality-vs-freshness
// result (DESIGN §17.5): four extLARD replicas synced every 10 ms keep the
// single front-end's hit rate, and replicas that never sync lose a large
// part of it. On the 4000-connection default workload: 71.6 %, 71.5 %,
// 54.2 %.
func TestReplicatedTierLocality(t *testing.T) {
	combo, err := ComboByName("BEforward-extLARD-PHTTP")
	if err != nil {
		t.Fatal(err)
	}
	hitRate := func(frontends int, mode dstate.Mode, staleness core.Micros) float64 {
		cfg := DefaultConfig(6, combo)
		cfg.Frontends, cfg.FEState, cfg.Staleness = frontends, mode, staleness
		res, err := Run(cfg, churnTrace())
		if err != nil {
			t.Fatal(err)
		}
		return res.HitRate
	}
	local := hitRate(1, dstate.ModeLocal, 0)
	fresh := hitRate(4, dstate.ModeReplicated, 10*core.Millisecond)
	never := hitRate(4, dstate.ModeReplicated, 0)
	t.Logf("hit rate: single front-end %.3f, 10 ms replicas %.3f, never-synced %.3f", local, fresh, never)
	if math.Abs(local-fresh) > 0.01 {
		t.Errorf("10 ms replicas hit %.3f, single front-end %.3f: want within 1 point", fresh, local)
	}
	if never > local-0.05 {
		t.Errorf("never-synced replicas hit %.3f, single front-end %.3f: want at least 5 points lower", never, local)
	}
}

// rel returns |a-b| / max(a,b).
func rel(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if a == 0 {
		return 0
	}
	return (a - b) / a
}

// TestHotEventsStayInLanes guards the event loop's fast path with a count,
// not a timing: every event of a churn-free single-front-end run is a
// resource completion, so it waits in that resource's lane and the heap
// never holds more than one key per resource — the front-end and each
// node's CPU and disk. A call site that schedules a completion around the
// lanes (Engine.Call at a time a resource returned) shows up here.
func TestHotEventsStayInLanes(t *testing.T) {
	tr := testTrace()
	flat := tr.Flatten10()
	for _, combo := range Combos() {
		for _, nodes := range []int{1, 4} {
			workload := tr
			if !combo.PHTTP {
				workload = flat
			}
			w := newWorker()
			res, err := runOnWorker(DefaultConfig(nodes, combo), workload, w)
			if err != nil {
				t.Fatalf("%s n=%d: %v", combo.Name, nodes, err)
			}
			if peak, max := w.eng.PeakHeap(), 1+2*nodes; peak < 1 || peak > max {
				t.Errorf("%s n=%d: heap peaked at %d keys over %d events, want 1..%d", combo.Name, nodes, peak, res.Events, max)
			}
		}
	}
}

// TestAdmitSkipsEmptyConnections: connections that carry no request are
// passed over, however many in a row, and the ones around them are served.
func TestAdmitSkipsEmptyConnections(t *testing.T) {
	one := core.Connection{Batches: []core.Batch{{{Target: "/a", Size: 1000}}}}
	conns := []core.Connection{one}
	conns = append(conns, make([]core.Connection, 100000)...)
	conns = append(conns, one, core.Connection{}, one)
	raw := &trace.Trace{Sizes: map[core.Target]int64{"/a": 1000}, Conns: conns}
	combo, err := ComboByName("simple-LARD-PHTTP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, combo)
	cfg.WarmupFrac = 0
	res, err := Run(cfg, raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3 {
		t.Errorf("served %d requests, want 3", res.Requests)
	}
}
