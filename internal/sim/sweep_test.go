package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"phttp/internal/core"
	"phttp/internal/metrics"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// sweepTrace is a smaller workload than testTrace: the golden comparisons
// below run full sweeps several times over.
var (
	sweepTraceOnce sync.Once
	sweepTraceVal  *trace.Trace
)

func sweepTrace() *trace.Trace {
	sweepTraceOnce.Do(func() {
		cfg := trace.SmallSynthConfig()
		cfg.Connections = 3000
		sweepTraceVal = trace.NewSynth(cfg).Generate()
	})
	return sweepTraceVal
}

// loadConfigs is Figure 3's grid: one back-end node under each offered
// load (connections in flight).
func loadConfigs(loads []int) []Config {
	single := Combo{Name: "single-node", Policy: "wrr", Mechanism: core.SingleHandoff, PHTTP: true}
	cfgs := make([]Config, len(loads))
	for i, l := range loads {
		cfgs[i] = DefaultConfig(1, single)
		cfgs[i].ConnsPerNode = l
	}
	return cfgs
}

// TestRunGridMatchesSerial is the grid runner's determinism golden: one
// mixed grid — P-HTTP and HTTP/1.0 combos over cluster sizes, plus
// offered-load points — gives DeepEqual results serially, on four workers
// and at GOMAXPROCS, and each point equals a single Run of its config.
// RunPrepared over a prepared workload equals Run.
func TestRunGridMatchesSerial(t *testing.T) {
	tr := sweepTrace()
	nodes := []int{1, 3}
	var cfgs []Config
	for _, combo := range Combos() {
		for _, n := range nodes {
			cfgs = append(cfgs, DefaultConfig(n, combo))
		}
	}
	cfgs = append(cfgs, loadConfigs([]int{1, 8, 32})...)
	wl := trace.NewWorkload(tr)
	serial, err := RunGrid(cfgs, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		got, err := RunGrid(cfgs, wl, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if !reflect.DeepEqual(got[i], serial[i]) {
				t.Errorf("workers=%d: point %d differs:\nserial:   %+v\nparallel: %+v", workers, i, serial[i], got[i])
			}
		}
	}
	for i, cfg := range cfgs {
		direct, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, serial[i]) {
			t.Errorf("point %d: Run differs from RunGrid:\nRun:     %+v\nRunGrid: %+v", i, direct, serial[i])
		}
	}

	for _, cfg := range []Config{cfgs[0], cfgs[len(cfgs)-4]} {
		workload := tr
		if !cfg.Combo.PHTTP {
			workload = tr.Flatten10()
		}
		prepared, err := RunPrepared(cfg, workload)
		if err != nil {
			t.Fatal(err)
		}
		if direct, _ := Run(cfg, tr); !reflect.DeepEqual(direct, prepared) {
			t.Errorf("%s: RunPrepared differs from Run:\ndirect:   %+v\nprepared: %+v", cfg.Combo.Name, direct, prepared)
		}
	}
}

// TestParallelClusterSweepMatchesSerial pins the Figure 7/8 grid: the
// parallel ClusterSweepWorkload produces the same results and the same
// rendered series table as the serial one, and each series point carries
// its grid point's throughput.
func TestParallelClusterSweepMatchesSerial(t *testing.T) {
	wl := trace.NewWorkload(sweepTrace())
	nodes := []int{1, 2, 3}
	serialSeries, serialResults, err := ClusterSweepWorkload(core.Apache, nodes, Combos(), wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	parSeries, parResults, err := ClusterSweepWorkload(core.Apache, nodes, Combos(), wl, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serialResults {
		if !reflect.DeepEqual(serialResults[i], parResults[i]) {
			t.Errorf("result %d differs:\nserial:   %+v\nparallel: %+v", i, serialResults[i], parResults[i])
		}
	}
	got := metrics.Table("nodes", parSeries...)
	want := metrics.Table("nodes", serialSeries...)
	if got != want {
		t.Errorf("rendered series differ:\nserial:\n%s\nparallel:\n%s", want, got)
	}
	for ci, s := range serialSeries {
		for ni, p := range s.Points {
			if want := serialResults[ci*len(nodes)+ni].Throughput; p.X != float64(nodes[ni]) || p.Y != want {
				t.Errorf("series %s point %d = (%g, %g), want (%d, %g)", s.Name, ni, p.X, p.Y, nodes[ni], want)
			}
		}
	}
}

// TestParallelDelaySweepMatchesSerial pins the Figure 3 grid the same way:
// an offered-load grid gives the same results, and so the same tail
// columns, on three workers as serially.
func TestParallelDelaySweepMatchesSerial(t *testing.T) {
	wl := trace.NewWorkload(sweepTrace())
	loads := []int{1, 8, 32}
	serial, err := RunGrid(loadConfigs(loads), wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGrid(loadConfigs(loads), wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel load grid differs from serial:\n%+v\nvs\n%+v", par, serial)
	}
	xs := []float64{1, 8, 32}
	s50, s95, s99, s999 := TailSeries(xs, serial)
	p50, p95, p99, p999 := TailSeries(xs, par)
	if got, want := metrics.Table("load", p50, p95, p99, p999), metrics.Table("load", s50, s95, s99, s999); got != want {
		t.Errorf("tail columns differ:\nserial:\n%s\nparallel:\n%s", want, got)
	}
}

// TestSweepEntryWrappers pins ClusterSweepWorkload against the runner it
// delegates to: at the default worker count it reproduces RunGrid over
// the configs it describes — combo-major, with the server kind's costs.
func TestSweepEntryWrappers(t *testing.T) {
	wl := trace.NewWorkload(sweepTrace())
	nodes := []int{1, 2}
	combos := Combos()[:2]
	var cfgs []Config
	for _, combo := range combos {
		for _, n := range nodes {
			cfg := DefaultConfig(n, combo)
			cfg.Server = server.CostsFor(core.Flash)
			cfgs = append(cfgs, cfg)
		}
	}
	want, err := RunGrid(cfgs, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := ClusterSweepWorkload(core.Flash, nodes, combos, wl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("ClusterSweepWorkload differs from RunGrid:\nRunGrid:  %+v\nwrapper:  %+v", want, got)
	}
}

// TestRunRepeatedOnSharedTraceIsStable replays one shared trace many times
// concurrently (what the sweep workers do) and demands identical results —
// this would catch any hidden mutation of the shared workload.
func TestRunRepeatedOnSharedTraceIsStable(t *testing.T) {
	tr := sweepTrace()
	combo, err := ComboByName("BEforward-extLARD-PHTTP")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(DefaultConfig(3, combo), tr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]Result, 6)
	errs := make([]error, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(DefaultConfig(3, combo), tr)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], ref) {
			t.Errorf("concurrent run %d diverged:\n%+v\nvs\n%+v", i, results[i], ref)
		}
	}
}

// TestSweepPropagatesValidationErrors pins the error path: an invalid grid
// point must surface Config.Validate's message from both the serial and the
// parallel runner, not a downstream deadlock report.
func TestSweepPropagatesValidationErrors(t *testing.T) {
	wl := trace.NewWorkload(sweepTrace())
	bad := []Combo{{Name: "bogus", Policy: "nonsense", Mechanism: core.SingleHandoff, PHTTP: true}}
	for _, workers := range []int{1, 4} {
		if _, _, err := ClusterSweepWorkload(core.Apache, []int{1, 2}, bad, wl, workers); err == nil || !strings.Contains(err.Error(), "nonsense") {
			t.Errorf("workers=%d: unknown policy: err = %v", workers, err)
		}
		if _, err := RunGrid(loadConfigs([]int{0}), wl, workers); err == nil || !strings.Contains(err.Error(), "ConnsPerNode") {
			t.Errorf("workers=%d: zero load point: err = %v", workers, err)
		}
	}
}

// TestSweepErrorReturnsNoResults pins the failure contract: a grid with
// one failing combo among valid ones must return nil series and nil
// results — never a partially-filled grid — from both the serial and the
// parallel path.
func TestSweepErrorReturnsNoResults(t *testing.T) {
	wl := trace.NewWorkload(sweepTrace())
	combos := []Combo{
		{Name: "ok", Policy: "wrr", Mechanism: core.SingleHandoff, PHTTP: true},
		{Name: "bogus", Policy: "nonsense", Mechanism: core.SingleHandoff, PHTTP: true},
	}
	for _, workers := range []int{1, 4} {
		series, results, err := ClusterSweepWorkload(core.Apache, []int{1, 2}, combos, wl, workers)
		if err == nil {
			t.Fatalf("workers=%d: failing combo did not error", workers)
		}
		if series != nil || results != nil {
			t.Errorf("workers=%d: error path leaked series=%v results=%v", workers, series, results)
		}
	}
}

// TestRunJobsZeroesResultsOnError drives runJobs directly: jobs that
// complete after another job fails must not leave readable slots behind.
func TestRunJobsZeroesResultsOnError(t *testing.T) {
	tr := sweepTrace()
	good, err := ComboByName("WRR")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		jobs := make([]sweepJob, 0, 6)
		for i := 0; i < 6; i++ {
			cfg := DefaultConfig(1, good)
			if i == 2 {
				cfg.Combo.Policy = "nonsense" // fails validation inside runOn
			}
			jobs = append(jobs, sweepJob{cfg: cfg, workload: tr, slot: i})
		}
		results := make([]Result, len(jobs))
		if err := runJobs(jobs, results, workers); err == nil {
			t.Fatalf("workers=%d: bad job did not error", workers)
		}
		for i, r := range results {
			if !reflect.DeepEqual(r, Result{}) {
				t.Errorf("workers=%d: slot %d left populated after error: %+v", workers, i, r)
			}
		}
	}
}

// TestClusterSweepWorkloadMatchesDirect pins the cache wiring: a sweep
// over a workload loaded from the binary trace cache produces results
// identical to one over the freshly generated trace.
func TestClusterSweepWorkloadMatchesDirect(t *testing.T) {
	_, direct, err := ClusterSweepWorkload(core.Apache, []int{1, 2}, Combos(), trace.NewWorkload(sweepTrace()), 0)
	if err != nil {
		t.Fatal(err)
	}

	cfg := trace.SmallSynthConfig()
	cfg.Connections = 3000 // must mirror sweepTrace()
	dir := t.TempDir()
	if _, hit, err := trace.LoadOrGenerate(dir, cfg); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatal("fresh cache dir reported a hit")
	}
	// Reload so the sweep runs over traces that went through the binary
	// format, not the in-memory originals.
	wl, hit, err := trace.LoadOrGenerate(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second load missed the cache")
	}
	_, cached, err := ClusterSweepWorkload(core.Apache, []int{1, 2}, Combos(), wl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, cached) {
		t.Error("sweep over cached workload diverged from direct trace")
	}
}

// TestRunInternsRawTrace covers the edge where a caller hands Run a trace
// built by hand (no loader, no interned IDs).
func TestRunInternsRawTrace(t *testing.T) {
	raw := &trace.Trace{
		Sizes: map[core.Target]int64{"/a": 1000, "/b": 2000},
		Conns: []core.Connection{
			{Batches: []core.Batch{{{Target: "/a", Size: 1000}}, {{Target: "/b", Size: 2000}}}},
			{Batches: []core.Batch{{{Target: "/a", Size: 1000}}}},
		},
	}
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
	// WarmupFrac 0 measures from time zero: all three requests count.
	if res.Requests != 3 || res.Events == 0 {
		t.Errorf("raw-trace run measured nothing: %+v", res)
	}
	if raw.Interner == nil || raw.Interner.Len() != 2 {
		t.Error("Run did not intern the raw trace")
	}
}
