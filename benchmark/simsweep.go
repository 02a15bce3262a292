package main

import (
	"fmt"
	"reflect"
	"time"

	"phttp/internal/core"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

// simNodes is the cluster-size axis of the sweep; the other axis is
// sim.Combos(), the seven policy/mechanism/protocol combinations of the
// paper's Figures 7 and 8.
var simNodes = []int{1, 2, 3, 4, 5, 6}

// simEnv is the simulator world's prepared input: the trace, interned and
// flattened once, as the sweep drivers expect it.
type simEnv struct {
	wl       *trace.Workload
	requests int64 // requests in the trace; every grid point simulates all of them
}

func setupSim(w workload, seed uint64) *simEnv {
	tr := trace.NewSynth(w.synthConfig(seed)).Generate()
	wl := trace.NewWorkload(tr)
	wl.Flatten()
	return &simEnv{wl: wl, requests: int64(tr.Requests())}
}

// simPass is one pass over the whole grid, timed combination by
// combination.
type simPass struct {
	total   window
	combos  []window     // one per sim.Combos() entry: that combination on 1..6 nodes
	results []sim.Result // grid order: combination-major, then nodes
}

// pass runs every combination over simNodes on one worker. Each combination
// is one ClusterSweepWorkload call, so the event engine is reused across its
// six grid points as in the full sweep.
func (e *simEnv) pass() (simPass, error) {
	var p simPass
	perCombo := e.requests * int64(len(simNodes))
	start := readUsage()
	prev := start
	for _, combo := range sim.Combos() {
		_, results, err := sim.ClusterSweepWorkload(core.Apache, simNodes, []sim.Combo{combo}, e.wl, 1)
		if err != nil {
			return simPass{}, fmt.Errorf("%s: %w", combo.Name, err)
		}
		now := readUsage()
		p.combos = append(p.combos, prev.until(now, perCombo))
		p.results = append(p.results, results...)
		prev = now
	}
	p.total = start.until(prev, perCombo*int64(len(sim.Combos())))
	return p, nil
}

func (p simPass) events() int64 {
	var n int64
	for _, r := range p.results {
		n += r.Events
	}
	return n
}

// simMeasure is a sequence of passes.
type simMeasure struct {
	passes []simPass
}

// measure runs whole passes until d has passed, and at least two, so that
// there is always a second pass to compare the first with.
func (e *simEnv) measure(d time.Duration) (simMeasure, error) {
	var m simMeasure
	start := time.Now()
	for len(m.passes) < 2 || time.Since(start) < d {
		p, err := e.pass()
		if err != nil {
			return m, err
		}
		m.passes = append(m.passes, p)
	}
	return m, nil
}

// fastest returns, for each combination, its window from the pass in which
// it took the least wall-clock time.
func (m simMeasure) fastest() []window {
	best := append([]window(nil), m.passes[0].combos...)
	for _, p := range m.passes[1:] {
		for i, c := range p.combos {
			if c.wall < best[i].wall {
				best[i] = c
			}
		}
	}
	return best
}

// check verifies the simulator's outputs: every pass equals the first
// result for result, no grid point failed a request, and every grid point
// served requests. No golden numbers are stored here (the figure goldens in
// the repository's tests own those), so a legitimate policy fix is not
// blocked by the benchmark.
func (m simMeasure) check() (failedPoints int64, bad []string) {
	first := m.passes[0].results
	for i, r := range first {
		switch {
		case r.FailedRequests != 0:
			failedPoints++
			bad = append(bad, fmt.Sprintf("%s n=%d: %d failed requests", r.Combo, r.Nodes, r.FailedRequests))
		case r.Requests <= 0 || r.Events <= 0:
			failedPoints++
			bad = append(bad, fmt.Sprintf("%s n=%d: served %d requests in %d events", r.Combo, r.Nodes, r.Requests, r.Events))
		}
		for pi, p := range m.passes[1:] {
			if !reflect.DeepEqual(r, p.results[i]) {
				failedPoints++
				bad = append(bad, fmt.Sprintf("%s n=%d: pass %d differs from pass 1", r.Combo, r.Nodes, pi+2))
				break
			}
		}
	}
	return failedPoints, bad
}
