package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"phttp/internal/core"
	"phttp/internal/metrics"
	"phttp/internal/server"
	"phttp/internal/simcore"
	"phttp/internal/trace"
)

// Sweeps are embarrassingly parallel: every grid point is an independent
// simulation with its own engine, policy, caches and dispatch state, sharing
// only the read-only trace. The workers below fan the grid out over
// GOMAXPROCS goroutines and write each Result into its preassigned slot, so
// the returned series and results are in exactly the order the serial loop
// produced — and, because each run is deterministic in isolation, with
// exactly the same values.

// sweepJob is one grid point: a prepared config plus its result slot.
type sweepJob struct {
	cfg      Config
	workload *trace.Trace
	slot     int
}

// runJobs executes jobs across workers goroutines (capped to the job count;
// values below 1 mean GOMAXPROCS), filling results by slot. The
// lowest-slot error among jobs that ran wins. On error the results slice
// is zeroed before returning: jobs that completed after the failure flag
// was raised may have written their slots, and callers must never read a
// partially-filled grid.
func runJobs(jobs []sweepJob, results []Result, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		eng := simcore.NewEngine()
		for _, j := range jobs {
			res, err := runOnEngine(j.cfg, j.workload, eng)
			if err != nil {
				clear(results)
				return err
			}
			results[j.slot] = res
		}
		return nil
	}
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
	)
	// Per-slot errors keep the reported failure stable — the lowest-slot
	// error among jobs that ran wins, not whichever goroutine lost a race —
	// while the failed flag cancels jobs not yet started so a bad sweep
	// does not grind through the whole grid first.
	errs := make([]error, len(results))
	ch := make(chan sweepJob)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one engine: its event heap, lane rings and
			// body slab grow to the largest grid point it runs and are
			// reused for the rest. Strictly worker-local — sharing them
			// across workers (e.g. through a sync.Pool) would bounce their
			// cache lines between cores for no benefit.
			eng := simcore.NewEngine()
			for j := range ch {
				if failed.Load() {
					continue
				}
				res, err := runOnEngine(j.cfg, j.workload, eng)
				if err != nil {
					errs[j.slot] = err
					failed.Store(true)
					continue
				}
				results[j.slot] = res
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			clear(results)
			return err
		}
	}
	return nil
}

// ClusterSweep runs every combo over the given cluster sizes with the given
// server cost model, regenerating the data behind Figure 7 (Apache) or
// Figure 8 (Flash). It returns one series per combo, keyed by node count.
// Grid points run in parallel across GOMAXPROCS workers; results are
// identical to — and ordered exactly as — the serial sweep.
func ClusterSweep(kind core.ServerKind, nodes []int, combos []Combo, tr *trace.Trace) ([]*metrics.Series, []Result, error) {
	return ClusterSweepParallel(kind, nodes, combos, tr, 0)
}

// ClusterSweepParallel is ClusterSweep with an explicit worker count:
// 1 forces the serial path (the golden tests pin parallel output to it),
// 0 means GOMAXPROCS.
func ClusterSweepParallel(kind core.ServerKind, nodes []int, combos []Combo, tr *trace.Trace, workers int) ([]*metrics.Series, []Result, error) {
	return ClusterSweepWorkload(kind, nodes, combos, trace.NewWorkload(tr), workers)
}

// ClusterSweepWorkload runs the sweep over a prepared workload — e.g. one
// loaded from the on-disk trace cache — so the HTTP/1.0 flattening is
// taken from the cache instead of being re-derived per sweep. Results are
// identical to ClusterSweepParallel on the same P-HTTP trace.
func ClusterSweepWorkload(kind core.ServerKind, nodes []int, combos []Combo, wl *trace.Workload, workers int) ([]*metrics.Series, []Result, error) {
	// Prepare the shared workloads once, before any worker starts: interned
	// IDs for the P-HTTP trace, and a single HTTP/1.0 flattening shared by
	// every non-P-HTTP grid point (the serial code used to re-flatten the
	// trace at every (combo, nodes) pair).
	tr := wl.PHTTP
	if tr.Interner == nil {
		tr.EnsureIDs()
	}
	var flat *trace.Trace
	for _, combo := range combos {
		if !combo.PHTTP {
			flat = wl.Flatten()
			if flat.Interner == nil {
				flat.EnsureIDs()
			}
			break
		}
	}

	jobs := make([]sweepJob, 0, len(combos)*len(nodes))
	for ci, combo := range combos {
		for ni, n := range nodes {
			cfg := DefaultConfig(n, combo)
			cfg.Server = server.CostsFor(kind)
			workload := tr
			if !combo.PHTTP {
				workload = flat
			}
			jobs = append(jobs, sweepJob{cfg: cfg, workload: workload, slot: ci*len(nodes) + ni})
		}
	}
	results := make([]Result, len(jobs))
	if err := runJobs(jobs, results, workers); err != nil {
		return nil, nil, err
	}

	series := make([]*metrics.Series, 0, len(combos))
	for ci, combo := range combos {
		s := &metrics.Series{Name: combo.Name}
		for ni, n := range nodes {
			s.Add(float64(n), results[ci*len(nodes)+ni].Throughput)
		}
		series = append(series, s)
	}
	return series, results, nil
}

// DelaySweep regenerates Figure 3: a single back-end node's throughput and
// mean delay as a function of offered load (concurrent connections). It
// returns the throughput series and the delay series (delay in
// milliseconds) over the given load points. Load points run in parallel;
// output is identical to the serial sweep.
func DelaySweep(kind core.ServerKind, loads []int, tr *trace.Trace) (throughput, delay *metrics.Series, err error) {
	return DelaySweepParallel(kind, loads, tr, 0)
}

// DelaySweepParallel is DelaySweep with an explicit worker count (1 forces
// serial, 0 means GOMAXPROCS).
func DelaySweepParallel(kind core.ServerKind, loads []int, tr *trace.Trace, workers int) (throughput, delay *metrics.Series, err error) {
	results, err := DelaySweepResults(kind, loads, tr, workers)
	if err != nil {
		return nil, nil, err
	}
	throughput = &metrics.Series{Name: "throughput(req/s)"}
	delay = &metrics.Series{Name: "delay(ms)"}
	for i, l := range loads {
		throughput.Add(float64(l), results[i].Throughput)
		delay.Add(float64(l), float64(results[i].MeanDelay)/float64(core.Millisecond))
	}
	return throughput, delay, nil
}

// DelaySweepResults is the Figure 3 sweep returning the full per-point
// Results — tail-latency summaries included — instead of pre-built mean
// series. DelaySweepParallel derives its series from it.
func DelaySweepResults(kind core.ServerKind, loads []int, tr *trace.Trace, workers int) ([]Result, error) {
	if tr.Interner == nil {
		tr.EnsureIDs()
	}
	jobs := make([]sweepJob, 0, len(loads))
	for i, l := range loads {
		cfg := DefaultConfig(1, Combo{
			Name: "single-node", Policy: "wrr",
			Mechanism: core.SingleHandoff, PHTTP: true,
		})
		cfg.Server = server.CostsFor(kind)
		cfg.ConnsPerNode = l
		jobs = append(jobs, sweepJob{cfg: cfg, workload: tr, slot: i})
	}
	results := make([]Result, len(jobs))
	if err := runJobs(jobs, results, workers); err != nil {
		return nil, err
	}
	return results, nil
}

// TailSeries folds per-point latency summaries into the p50/p95/p99/p999
// columns (milliseconds) of a delay table, keyed by each result's slot in
// xs. The figure 3 driver and the scenario loads path both print them
// next to the mean-delay column.
func TailSeries(xs []float64, results []Result) (p50, p95, p99, p999 *metrics.Series) {
	ms := func(m core.Micros) float64 { return float64(m) / float64(core.Millisecond) }
	p50 = &metrics.Series{Name: "p50(ms)"}
	p95 = &metrics.Series{Name: "p95(ms)"}
	p99 = &metrics.Series{Name: "p99(ms)"}
	p999 = &metrics.Series{Name: "p999(ms)"}
	for i, r := range results {
		p50.Add(xs[i], ms(r.Latency.P50))
		p95.Add(xs[i], ms(r.Latency.P95))
		p99.Add(xs[i], ms(r.Latency.P99))
		p999.Add(xs[i], ms(r.Latency.P999))
	}
	return p50, p95, p99, p999
}
