package main

import (
	"fmt"
	"slices"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/policy"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// Every prototype run has the same shape: one process, cluster.Start with
// one front-end and protoNodes back-ends over loopback TCP and UNIX-socket
// fd handoff, driven by the closed-loop client in client.go.
const protoNodes = 3

// batchWindow is the front-end's pipelining window. The client writes a
// whole batch in one write, so nothing is gained by waiting; at the 2 ms
// default the closed loop would measure the timer, not the program.
const batchWindow = 50 * time.Microsecond

// protoEnv is a warmed-up prototype cluster plus the client replaying the
// workload's connections against it.
type protoEnv struct {
	wl      workload
	base    *trace.Trace // as generated: P-HTTP
	tr      *trace.Trace // as replayed: base, or its flattening for HTTP/1.0 workloads
	cl      *cluster.Cluster
	client  *client
	started time.Time // when cluster.Start returned; anchors fe.Utilization()

	cursor   int   // next connection of the (cycled) sequence
	answered int64 // verified responses so far, warm-up included
}

// setupProto generates the inputs from the seed, starts the cluster and runs
// the fixed warm-up prefix. Everything here is set-up time.
func setupProto(wl workload, seed uint64, tamper func([]byte)) (*protoEnv, error) {
	base := trace.NewSynth(wl.synthConfig(seed)).Generate()
	tr := base
	if wl.http10 {
		tr = base.Flatten10()
	}
	cfg := cluster.DefaultConfig(protoNodes, tr.Catalog())
	cfg.Policy = wl.policy
	cfg.Mechanism = wl.mechanism
	cfg.Params = wl.params()
	// The program is measured, not the 300 MHz model: no modelled CPU
	// cost, no disk sleep on a miss, a cache that holds the working set.
	cfg.SimulateCPU = false
	cfg.TimeScale = 1
	cfg.Disk = server.DiskParams{}
	cfg.CacheBytes = max(cluster.PrototypeCacheBytes, 2*tr.WorkingSetBytes())
	cfg.BatchWindow = batchWindow

	cl, err := cluster.Start(cfg)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	e := &protoEnv{wl: wl, base: base, tr: tr, cl: cl, started: time.Now()}
	e.client = newClient(clientConfig{
		addr:   cl.Addr(),
		plans:  buildPlans(tr.Conns, wl.http10),
		tamper: tamper,
	})
	warm := e.runBlock(wl.warmConns, false)
	if warm.failed > 0 {
		cl.Close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	return e, nil
}

func (e *protoEnv) close() { e.cl.Close() }

func (e *protoEnv) runBlock(conns int, tracing bool) blockResult {
	res := e.client.runBlock(e.cursor, conns, tracing)
	e.cursor += conns
	e.answered += res.attempted - res.failed
	return res
}

// counters is one reading of the program's public counters; a measured
// window is bracketed by two of them.
type counters struct {
	feRequests, feConns int64
	feBusy              time.Duration // dispatcher + forwarding busy time
	local, remote       int64         // extended LARD: served by handling node / lateral fetch
	hits, misses        int64         // back-end document stores
	served              int64         // responses written by back-ends
	interned            int
}

func (e *protoEnv) counters() counters {
	fe := e.cl.FE
	c := counters{
		feRequests: fe.Requests(),
		feConns:    fe.Connections(),
		feBusy:     time.Duration(fe.Utilization() * float64(time.Since(e.started))),
		served:     e.cl.Served(),
		interned:   fe.Engine().Interner().Len(),
	}
	if p, ok := fe.Policy().(*policy.ExtLARD); ok {
		c.local, c.remote, _, _ = p.Stats()
	}
	for _, be := range e.cl.BEs {
		h, m := be.Store().Counters()
		c.hits += h
		c.misses += m
	}
	return c
}

func (a counters) minus(b counters) counters {
	return counters{
		feRequests: a.feRequests - b.feRequests,
		feConns:    a.feConns - b.feConns,
		feBusy:     a.feBusy - b.feBusy,
		local:      a.local - b.local,
		remote:     a.remote - b.remote,
		hits:       a.hits - b.hits,
		misses:     a.misses - b.misses,
		served:     a.served - b.served,
		interned:   a.interned,
	}
}

// protoMeasure is one measured window: a sequence of blocks.
type protoMeasure struct {
	windows    []window  // one per block
	p50s, p99s []float64 // per-block latency percentiles, µs
	lats       []int64   // every request's latency, ns, sorted
	spans      []span
	attempted  int64
	failed     int64
	bytes      int64
	firstErr   error
	delta      counters // program counters over the window
}

// measure replays blocks of connections until d has passed. A block is the
// unit every metric is computed over; the reported value is the median
// block, which one disturbed block cannot move.
func (e *protoEnv) measure(d time.Duration, tracing bool) protoMeasure {
	var m protoMeasure
	before := e.counters()
	start := time.Now()
	for time.Since(start) < d {
		u0 := readUsage()
		res := e.runBlock(e.wl.blockConns, tracing)
		u1 := readUsage()
		m.attempted += res.attempted
		m.failed += res.failed
		m.bytes += res.bytes
		if m.firstErr == nil {
			m.firstErr = res.firstErr
		}
		m.spans = append(m.spans, res.spans...)
		if len(res.lats) == 0 {
			continue
		}
		m.windows = append(m.windows, u0.until(u1, int64(len(res.lats))))
		slices.Sort(res.lats)
		m.p50s = append(m.p50s, float64(quantileNS(res.lats, 0.50))/1e3)
		m.p99s = append(m.p99s, float64(quantileNS(res.lats, 0.99))/1e3)
		m.lats = append(m.lats, res.lats...)
	}
	m.delta = e.counters().minus(before)
	slices.Sort(m.lats)
	return m
}

// check returns what is wrong with a measured window, beyond the failures
// the client already counted.
func (e *protoEnv) check(m protoMeasure) []string {
	var bad []string
	if m.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d requests failed or did not verify: %v", m.failed, m.attempted, m.firstErr))
	}
	if len(m.windows) == 0 {
		bad = append(bad, "no block completed")
	}
	// With failures the two counts are not expected to agree.
	if got := e.cl.FE.Requests(); m.failed == 0 && got != e.answered {
		bad = append(bad, fmt.Sprintf("front-end dispatched %d requests, client verified %d", got, e.answered))
	}
	return bad
}
