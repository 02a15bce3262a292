package main

import (
	"math"

	"phttp/internal/core"
	"phttp/internal/policy"
	"phttp/internal/trace"
)

// workload is one named set of inputs. The four names are final: later
// issues refer to them. README.md says why each exists and which layer
// metric should move which end-to-end metric on it.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	// sim selects the simulator world (no sockets); the remaining fields
	// describe a prototype run.
	sim bool

	// minSize/maxSize bound document sizes; the lognormal body is centred
	// between them so sizes spread over the range instead of piling up on
	// one clamp.
	minSize, maxSize int64
	http10           bool // flatten to one request per connection, HTTP/1.0
	policy           string
	mechanism        core.Mechanism
	// diskQueueLow overrides Params.DiskQueueLow. 0 makes extended LARD
	// treat every disk as busy, so a request whose target is mapped on
	// another node becomes a lateral fetch — the regime two closed-loop
	// clients cannot create by load.
	diskQueueLow int

	// connections sizes the generated trace.
	connections int
	// warmConns is the fixed warm-up prefix (part of setup_s); blockConns
	// is the number of connections in one measured block.
	warmConns  int
	blockConns int
}

var workloads = []workload{
	{
		name:    "proto.phttp-local",
		why:     "P-HTTP, ~10 small pipelined requests per connection, all served by the handling node: per-request front-end work dominates",
		minSize: 96, maxSize: 512,
		policy: "extlard", mechanism: core.BEForwarding,
		diskQueueLow: policy.DefaultParams().DiskQueueLow,
		connections:  protoConnections,
		warmConns:    1000, blockConns: 2000,
	},
	{
		name:    "proto.phttp-forward",
		why:     "same connections with 32-256 KB documents and every disk treated as busy: lateral fetches, so per-byte work dominates",
		minSize: 32 << 10, maxSize: 256 << 10,
		policy: "extlard", mechanism: core.BEForwarding,
		diskQueueLow: 0,
		connections:  protoConnections,
		warmConns:    400, blockConns: 800,
	},
	{
		name:    "proto.http10-handoff",
		why:     "the same trace flattened to HTTP/1.0 under LARD with single handoff: one accept, dispatch, fd handoff and close per request",
		minSize: 96, maxSize: 512,
		http10: true,
		policy: "lard", mechanism: core.SingleHandoff,
		diskQueueLow: policy.DefaultParams().DiskQueueLow,
		connections:  protoConnections,
		warmConns:    6000, blockConns: 4000,
	},
	{
		name:        "sim.sweep",
		why:         "the simulator world: all seven policy/mechanism combinations on 1-6 nodes over the default synthetic trace, no sockets",
		sim:         true,
		connections: simConnections,
		// Used by the layer replay only; the sweep itself runs every
		// combination.
		policy: "extlard", mechanism: core.BEForwarding,
		diskQueueLow: policy.DefaultParams().DiskQueueLow,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simConnections sizes the simulator trace: the default document
// population and session model with a sixth of the default 60 000
// connections, so one pass over the 42-point grid takes about 3 s and a run
// holds several passes to take a median over.
const simConnections = 10000

// protoConnections sizes the prototype traces. They keep the default
// document population (12 000 pages, 28 000 objects) and session model: with
// the small test population the few most popular pages decide the mean
// requests per connection, which then moves by a quarter from seed to seed
// and takes requests per second with it.
const protoConnections = 20000

// synthConfig returns the generator configuration of a workload. Only the
// seed comes from the command line; the program under test receives the
// generated connections and catalog, never the configuration.
func (w workload) synthConfig(seed uint64) trace.SynthConfig {
	cfg := trace.DefaultSynthConfig()
	cfg.Seed = seed
	cfg.Connections = w.connections
	if w.sim {
		return cfg
	}
	cfg.MinSize, cfg.MaxSize = w.minSize, w.maxSize
	cfg.TailProb = 0
	mid := math.Log(math.Sqrt(float64(w.minSize) * float64(w.maxSize)))
	cfg.PageLogMu, cfg.ObjectLogMu = mid, mid
	cfg.PageLogSigma, cfg.ObjectLogSigma = 0.5, 0.5
	return cfg
}

// scaled returns the workload at a tenth of its size, for --smoke.
func (w workload) scaled() workload {
	w.connections /= 10
	w.warmConns /= 10
	w.blockConns /= 10
	return w
}

func (w workload) params() policy.Params {
	p := policy.DefaultParams()
	p.DiskQueueLow = w.diskQueueLow
	return p
}
