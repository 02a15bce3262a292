package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"phttp/internal/cache"
	"phttp/internal/core"
	"phttp/internal/metrics"
	"phttp/internal/server"
	"phttp/internal/simcore"
	"phttp/internal/trace"
)

// Sweeps are embarrassingly parallel: every grid point is an independent
// simulation with its own policy and dispatch state, on its worker's reset
// engine and node caches, sharing only the read-only trace. The workers
// below fan the grid out over GOMAXPROCS goroutines and write each Result
// into its preassigned slot, so the returned series and results are in
// exactly the order the serial loop produced — and, because each run is
// deterministic in isolation, with exactly the same values.

// worker is one sweep worker's reusable run state: the event engine and the
// nodes' cache models. Both grow to the largest grid point the worker has
// run and are reset, not rebuilt, for the next. Strictly worker-local —
// sharing them across workers (e.g. through a sync.Pool) would bounce
// their cache lines between cores for no benefit.
type worker struct {
	eng    *simcore.Engine
	caches []*cache.IDLRU
}

func newWorker() *worker { return &worker{eng: simcore.NewEngine()} }

// nodeCache returns node i's cache model for a run: the worker's own,
// emptied and resized to capacity, or a new one the first time the worker
// runs that many nodes.
func (w *worker) nodeCache(i int, capacity int64) *cache.IDLRU {
	if i < len(w.caches) {
		w.caches[i].Reset(capacity)
		return w.caches[i]
	}
	c := cache.NewIDLRU(capacity)
	w.caches = append(w.caches, c)
	return c
}

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
		w := newWorker()
		for _, j := range jobs {
			res, err := runOnWorker(j.cfg, j.workload, w)
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
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker()
			for j := range ch {
				if failed.Load() {
					continue
				}
				res, err := runOnWorker(j.cfg, j.workload, w)
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

// RunGrid runs every config over the workload across workers goroutines
// (0 = GOMAXPROCS, 1 = serial) and returns the results in config order.
// P-HTTP configs replay wl.PHTTP and the others its HTTP/1.0 flattening,
// both interned once before any worker starts, so a grid point pays
// neither per-run flattening nor interning. Every grid runs here:
// phttp-sim's scenarios, and ClusterSweepWorkload with the benchmark's
// reference sweep behind it. On error no results are returned.
func RunGrid(cfgs []Config, wl *trace.Workload, workers int) ([]Result, error) {
	tr := wl.PHTTP
	if tr.Interner == nil {
		tr.EnsureIDs()
	}
	var flat *trace.Trace
	jobs := make([]sweepJob, len(cfgs))
	for i, cfg := range cfgs {
		workload := tr
		if !cfg.Combo.PHTTP {
			if flat == nil {
				flat = wl.Flatten()
				if flat.Interner == nil {
					flat.EnsureIDs()
				}
			}
			workload = flat
		}
		jobs[i] = sweepJob{cfg: cfg, workload: workload, slot: i}
	}
	results := make([]Result, len(jobs))
	if err := runJobs(jobs, results, workers); err != nil {
		return nil, err
	}
	return results, nil
}

// ClusterSweepWorkload runs every combo over the given cluster sizes with
// the given server cost model — the grid behind Figure 7 (Apache) and
// Figure 8 (Flash) — and returns one throughput series per combo, keyed by
// node count, with the results in combo-major order.
func ClusterSweepWorkload(kind core.ServerKind, nodes []int, combos []Combo, wl *trace.Workload, workers int) ([]*metrics.Series, []Result, error) {
	cfgs := make([]Config, 0, len(combos)*len(nodes))
	for _, combo := range combos {
		for _, n := range nodes {
			cfg := DefaultConfig(n, combo)
			cfg.Server = server.CostsFor(kind)
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := RunGrid(cfgs, wl, workers)
	if err != nil {
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

// TailSeries folds per-point latency summaries into the p50/p95/p99/p999
// columns (milliseconds) of a delay table, keyed by each result's slot in
// xs. phttp-sim prints them next to the mean-delay column of an
// offered-load grid (Figure 3).
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
