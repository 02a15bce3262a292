package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/server"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

// The traced run is separate from the end-to-end run, which always has
// tracing off. It spends a quarter of its time on an untraced window, a
// quarter on the same window with client spans on (the difference is
// trace_overhead_frac), and half on the layer replay of layers.go.

// maxSpanConns and maxLayerSpans bound how many connections' client spans and
// how many of each layer's spans are written to the span file, which would
// otherwise run to tens of megabytes; the statistics use all of them.
const (
	maxSpanConns  = 5000
	maxLayerSpans = 1000
)

// dispatchSpec is the dispatch-engine configuration of a workload, as the
// front-end builds it, for the layer replay.
func (w workload) dispatchSpec(cacheBytes int64) dispatch.Spec {
	opts := dispatch.Options{"cache-bytes": cacheBytes, "disk-queue-low": w.diskQueueLow}
	if w.policy == "extlard" {
		opts["mechanism"] = w.mechanism.String()
	}
	return dispatch.Spec{Policy: w.policy, Nodes: protoNodes, Options: opts}
}

// simPoint is one traced grid point: a sim.RunPrepared call and its span.
type simPoint struct {
	start, end int64 // ns since the epoch
	res        sim.Result
}

// tracedGrid runs every combination on the given cluster sizes one grid
// point at a time, so each gets its own span. Unlike the sweep driver it
// does not reuse the event engine between points; that difference is part
// of trace_overhead_frac.
func tracedGrid(wl *trace.Workload, nodes []int, epoch time.Time) ([]simPoint, error) {
	var points []simPoint
	for _, combo := range sim.Combos() {
		workload := wl.PHTTP
		if !combo.PHTTP {
			workload = wl.Flatten()
		}
		for _, n := range nodes {
			cfg := sim.DefaultConfig(n, combo)
			cfg.Server = server.CostsFor(core.Apache)
			t0 := time.Now()
			res, err := sim.RunPrepared(cfg, workload)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", combo.Name, n, err)
			}
			points = append(points, simPoint{t0.Sub(epoch).Nanoseconds(), time.Since(epoch).Nanoseconds(), res})
		}
	}
	return points, nil
}

// comboNsPerEvent folds traced grid points into wall-clock ns per event for
// each combination, in sim.Combos() order.
func comboNsPerEvent(points []simPoint) map[string]float64 {
	ns := map[string]float64{}
	events := map[string]float64{}
	for _, p := range points {
		ns[p.res.Combo] += float64(p.end - p.start)
		events[p.res.Combo] += float64(p.res.Events)
	}
	for combo := range ns {
		ns[combo] /= events[combo]
	}
	return ns
}

// traceProto is the traced run of a prototype workload.
func traceProto(wl workload, opt options, d time.Duration) (result, error) {
	env, err := setupProto(wl, opt.seed, opt.tamper)
	if err != nil {
		return result{}, err
	}
	defer env.close()
	plain := env.measure(d/4, false)
	problems := env.check(plain)
	traced := env.measure(d/4, true)
	problems = append(problems, env.check(traced)...)
	r := result{
		workload:  wl.name,
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		problems:  problems,
	}
	if len(plain.windows) == 0 || len(traced.windows) == 0 {
		return r, nil
	}

	// Client spans: which phase of a connection holds the time.
	spans := clientSpanStats(traced.spans)
	for k := spanConnect; k < numSpanKinds; k++ {
		r.add("client."+spanNames[k]+"_us", spans.median[k], "us")
	}
	r.add("client.conn_self_us", spans.connSelf, "us")

	// The program's own counters over the traced window.
	c := traced.delta
	reqs := float64(traced.attempted - traced.failed)
	handoffsPerReq := float64(c.feConns) / reqs
	bytesPerReq := float64(traced.bytes) / reqs
	r.add("policy.forward_frac", frac(c.remote, c.local+c.remote), "ratio")
	r.add("cluster.handoffs_per_req", handoffsPerReq, "ratio")
	r.add("cluster.bytes_per_req", bytesPerReq, "B")
	r.add("cluster.docstore_miss_frac", frac(c.misses, c.hits+c.misses), "ratio")
	r.add("cluster.fe_busy_us_per_req", float64(c.feBusy.Nanoseconds())/1e3/reqs, "us")
	r.add("core.interned_targets", float64(c.interned), "count")
	logf("%s: front-end counted %d requests on %d connections, back-ends served %d; front-end forward latency p50 %d us p99 %d us",
		wl.name, c.feRequests, c.feConns, c.served, env.cl.FE.Latency().Quantile(0.5), env.cl.FE.Latency().Quantile(0.99))
	logDiscrimination(wl.name, traced)

	// Layer replay over the exact connections the client replayed, then
	// the simulator on the same trace at the prototype's cluster size.
	cacheBytes := max(int64(1), 2*env.tr.WorkingSetBytes())
	lr := replayLayers(newLayerInput(env.tr.Conns, env.tr.Catalog(), wl.http10, wl.dispatchSpec(cacheBytes)), d/2)
	points, err := tracedGrid(trace.NewWorkload(env.base), []int{protoNodes}, lr.epoch)
	if err != nil {
		return result{}, err
	}
	if lr.err != nil {
		r.problems = append(r.problems, lr.err.Error())
	}
	var events int64
	for _, p := range points {
		events += p.res.Events
	}
	addLayerMetrics(&r, lr, comboNsPerEvent(points), events)

	// Budget: what the layers account for of the CPU time a request costs.
	cpu := medianOf(plain.windows, window.cpuUsPerOp)
	fe := lr.us("httpmsg.parse") + lr.us("dispatch.assign") + lr.us("cluster.handoff")*handoffsPerReq
	layers := fe + lr.us("httpmsg.response") + lr.us("cluster.docstore") + lr.us("cluster.content")*bytesPerReq
	addBudget(&r, layers, cpu, fe, handoffsPerReq)
	r.add("trace_overhead_frac", 1-medianOf(traced.windows, window.opsPerSec)/medianOf(plain.windows, window.opsPerSec), "ratio")

	return r, writeSpans(opt.outDir, wl.name, traced.spans, lr.spans, points)
}

// traceSim is the traced run of sim.sweep: untraced passes through the sweep
// driver alternate with traced passes, one span per grid point.
func traceSim(wl workload, opt options, d time.Duration) (result, error) {
	env := setupSim(wl, opt.seed)
	epoch := time.Now()
	var plain simMeasure
	var tracedWall []float64 // per traced pass
	var perCombo []map[string]float64
	var points []simPoint
	for start := time.Now(); len(plain.passes) == 0 || time.Since(start) < d/2; {
		p, err := env.pass()
		if err != nil {
			return result{}, err
		}
		plain.passes = append(plain.passes, p)
		t0 := time.Now()
		if points, err = tracedGrid(env.wl, simNodes, epoch); err != nil {
			return result{}, err
		}
		tracedWall = append(tracedWall, time.Since(t0).Seconds())
		perCombo = append(perCombo, comboNsPerEvent(points))
	}
	r := result{workload: wl.name, attempted: int64(len(points))}
	r.failed, r.problems = plain.check()
	// The traced pass must reproduce the sweep driver's results.
	for i, p := range points {
		if want := plain.passes[0].results[i]; p.res.Events != want.Events || p.res.Requests != want.Requests {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("%s n=%d: traced run differs from the sweep driver", want.Combo, want.Nodes))
		}
	}

	// The simulator has no client; its spans are the grid points.
	for k := spanConnect; k < numSpanKinds; k++ {
		r.add("client."+spanNames[k]+"_us", 0, "us")
	}
	r.add("client.conn_self_us", 0, "us")

	// The same counts as the prototype's, summed over the grid.
	tr := env.wl.PHTTP
	var local, remote, conns, requests, hits float64
	for _, p := range points {
		local += float64(p.res.LocalServes)
		remote += float64(p.res.RemoteServes)
		requests += float64(env.requests)
		hits += p.res.HitRate * float64(env.requests)
	}
	for _, combo := range sim.Combos() {
		n := float64(len(tr.Conns))
		if !combo.PHTTP {
			n = float64(env.requests)
		}
		conns += n * float64(len(simNodes))
	}
	handoffsPerReq := conns / requests
	bytesPerReq := float64(tr.Bytes()) / float64(env.requests)
	r.add("policy.forward_frac", remote/max(1, local+remote), "ratio")
	r.add("cluster.handoffs_per_req", handoffsPerReq, "ratio")
	r.add("cluster.bytes_per_req", bytesPerReq, "B")
	r.add("cluster.docstore_miss_frac", 1-hits/requests, "ratio")
	r.add("cluster.fe_busy_us_per_req", 0, "us")
	r.add("core.interned_targets", float64(tr.Interner.Len()), "count")

	// Median over traced passes of each combination's ns/event.
	folded := map[string]float64{}
	for _, combo := range sim.Combos() {
		var vs []float64
		for _, pc := range perCombo {
			vs = append(vs, pc[combo.Name])
		}
		folded[combo.Name] = median(vs)
	}
	spec := wl.dispatchSpec(sim.DefaultCacheBytes)
	lr := replayLayers(newLayerInput(tr.Conns, tr.Catalog(), false, spec), d/2)
	if lr.err != nil {
		r.problems = append(r.problems, lr.err.Error())
	}
	addLayerMetrics(&r, lr, folded, plain.passes[0].events())

	// Budget: the event engine, dispatch, the cache model and the
	// histogram are what a simulated request is made of; the remainder is
	// the simulator's own state machine.
	var totals []window
	for _, p := range plain.passes {
		totals = append(totals, p.total)
	}
	eventsPerReq := float64(plain.passes[0].events()) / float64(plain.passes[0].total.ops)
	cpu := medianOf(totals, window.cpuUsPerOp)
	layers := lr.us("simcore.event")*eventsPerReq + lr.us("dispatch.assign") + lr.us("cache.idlru") + lr.us("core.hist_record")
	fe := lr.us("httpmsg.parse") + lr.us("dispatch.assign") + lr.us("cluster.handoff")*handoffsPerReq
	addBudget(&r, layers, cpu, fe, handoffsPerReq)
	plainWall := medianOf(totals, func(w window) float64 { return w.wall.Seconds() })
	r.add("trace_overhead_frac", 1-plainWall/median(tracedWall), "ratio")

	logf("%s: per grid point (last traced pass): combination, nodes, events (exact), ns/event, hit rate", wl.name)
	for _, p := range points {
		logf("%s:   %-28s n=%d %9d events %7.1f ns/event  hit %.4f", wl.name, p.res.Combo, p.res.Nodes, p.res.Events,
			float64(p.end-p.start)/float64(p.res.Events), p.res.HitRate)
	}
	return r, writeSpans(opt.outDir, wl.name, nil, lr.spans, points)
}

// us returns a layer's median cost in microseconds per unit.
func (lr *layerReplay) us(layer string) float64 { return lr.timing[layer].nsPerUnit / 1e3 }

// addLayerMetrics adds the layer table to the result.
func addLayerMetrics(r *result, lr *layerReplay, comboNs map[string]float64, events int64) {
	ns := func(layer string) float64 { return lr.timing[layer].nsPerUnit }
	r.add("httpmsg.parse_ns", ns("httpmsg.parse"), "ns")
	r.add("httpmsg.parse_allocs", lr.timing["httpmsg.parse"].allocsPerUnit, "count")
	r.add("httpmsg.response_ns", ns("httpmsg.response"), "ns")
	r.add("core.intern_ns", ns("core.intern"), "ns")
	r.add("core.intern_hit_ratio", lr.counts["core.intern_hit_ratio"], "ratio")
	r.add("dispatch.assign_ns", ns("dispatch.assign"), "ns")
	r.add("policy.assign_ns", ns("policy.assign"), "ns")
	r.add("cluster.handoff_us", ns("cluster.handoff")/1e3, "us")
	r.add("cluster.docstore_ns", ns("cluster.docstore"), "ns")
	r.add("cluster.content_ns_per_kb", ns("cluster.content")*1024, "ns")
	r.add("cache.idlru_ns", ns("cache.idlru"), "ns")
	r.add("simcore.event_ns", ns("simcore.event"), "ns")
	r.add("core.hist_record_ns", ns("core.hist_record"), "ns")
	for _, combo := range sim.Combos() {
		r.add("sim.ns_per_event."+combo.Name, comboNs[combo.Name], "ns")
	}
	r.add("sim.events", float64(events), "count")
	logf("%s: layer replay of the dispatch engine: %.0f local, %.0f forwarded, %.0f handoffs; document store %.0f hits, %.0f misses",
		r.workload, lr.counts["dispatch.local"], lr.counts["dispatch.forwarded"], lr.counts["dispatch.handoffs"],
		lr.counts["cluster.docstore_hits"], lr.counts["cluster.docstore_misses"])
}

// addBudget adds the budget row (layers + unattributed = cpu) and, next to
// the measured front-end layers, the 300 MHz model's front-end cost terms —
// the ones the analytic model and the simulator charge.
func addBudget(r *result, layers, cpu, fe, handoffsPerReq float64) {
	r.add("budget.layers_us_per_req", layers, "us")
	r.add("budget.cpu_us_per_req", cpu, "us")
	r.add("budget.unattributed_us_per_req", cpu-layers, "us")
	m := server.CostsFor(core.Apache)
	model := float64(m.FEPerRequest) + float64(m.FEConn+m.HandoffFE)*handoffsPerReq
	r.add("layers.fe_us_per_req", fe, "us")
	r.add("model.fe_us_per_req", model, "us")
	logf("%s: front-end cost per request: measured layers (httpmsg.parse + dispatch.assign + cluster.handoff x %.4f) %.2f us; 300 MHz model prediction (FEPerRequest %d + (FEConn %d + HandoffFE %d) x %.4f) %.2f us",
		r.workload, handoffsPerReq, fe, m.FEPerRequest, m.FEConn, m.HandoffFE, handoffsPerReq, model)
}

// spanStats summarises the client's spans.
type spanStats struct {
	median   [numSpanKinds]float64 // µs
	connSelf float64               // median µs of a connection outside its child spans
}

func clientSpanStats(spans []span) spanStats {
	var byKind [numSpanKinds][]float64
	children := map[int64]int64{} // connection → ns covered by child spans
	for _, s := range spans {
		byKind[s.kind] = append(byKind[s.kind], float64(s.end-s.start)/1e3)
		if s.kind != spanConn {
			children[s.conn] += s.end - s.start
		}
	}
	var st spanStats
	for k := range byKind {
		st.median[k] = median(byKind[k])
	}
	var self []float64
	for _, s := range spans {
		if s.kind == spanConn {
			self = append(self, float64(s.end-s.start-children[s.conn])/1e3)
		}
	}
	st.connSelf = median(self)
	return st
}

// writeSpans writes the in-memory spans to <dir>/<workload>.trace.jsonl, one
// JSON object per line.
func writeSpans(dir, workload string, client []span, layers []layerSpan, points []simPoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	// The first connections of the traced window, whole.
	var ids []int64
	for _, s := range client {
		if s.kind == spanConn {
			ids = append(ids, s.conn)
		}
	}
	slices.Sort(ids)
	limit := int64(-1)
	if len(ids) > 0 {
		limit = ids[min(len(ids), maxSpanConns)-1]
	}
	for _, s := range client {
		if s.conn > limit {
			continue
		}
		parent := `"conn"`
		if s.kind == spanConn {
			parent = "null"
		}
		fmt.Fprintf(w, `{"kind":"client","conn":%d,"span":%q,"parent":%s,"batch":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.conn, spanNames[s.kind], parent, s.batch, s.start, s.end)
	}
	written := map[string]int{}
	for _, s := range layers {
		if written[s.layer]++; written[s.layer] > maxLayerSpans {
			continue
		}
		fmt.Fprintf(w, `{"kind":"layer","layer":%q,"start_ns":%d,"end_ns":%d,"units":%d}`+"\n", s.layer, s.start, s.end, s.units)
	}
	for _, p := range points {
		fmt.Fprintf(w, `{"kind":"sim","combo":%q,"nodes":%d,"start_ns":%d,"end_ns":%d,"events":%d,"requests":%d,"hit_rate":%g}`+"\n",
			p.res.Combo, p.res.Nodes, p.start, p.end, p.res.Events, p.res.Requests, p.res.HitRate)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
