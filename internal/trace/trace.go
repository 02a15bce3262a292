// Package trace provides the workload side of the reproduction: Web server
// log entries (Common Log Format), the paper's heuristic reconstruction of
// HTTP/1.1 persistent connections and pipelined batches from per-request
// logs, a synthetic generator standing in for the Rice University trace, and
// working-set statistics.
package trace

import (
	"fmt"
	"sort"

	"phttp/internal/core"
)

// Entry is one Web server log record: who asked for what, when, and how many
// response bytes it produced.
type Entry struct {
	// Client is the requesting host (the trace's client field).
	Client string
	// Time is the access timestamp, microseconds since the trace epoch.
	Time core.Micros
	// Target is the requested document.
	Target core.Target
	// Size is the response body size in bytes.
	Size int64
	// Status is the HTTP status code (only 200s become requests).
	Status int
}

// Trace is a reconstructed workload: an ordered sequence of client
// connections (each a sequence of pipelined batches) plus the table of
// target sizes, which doubles as the synthetic document store's catalog.
//
// Interner holds the dense TargetIDs stamped onto every Request by
// EnsureIDs. The loaders (synthetic generator, log reconstruction) intern
// at build time, so everything downstream — simulator caches, policies,
// mapping tables — runs on integer IDs and only the edges ever see target
// strings.
type Trace struct {
	Conns []core.Connection
	// Sizes is the target→size catalog.
	Sizes    map[core.Target]int64
	Interner *core.Interner
}

// Catalog returns the target→size table.
func (t *Trace) Catalog() map[core.Target]int64 { return t.Sizes }

// EnsureIDs interns every request's target, assigning dense IDs in trace
// order (first appearance wins), and returns the trace for chaining. It is
// idempotent and must be called — or inherited from the loader — before the
// trace is replayed. Not safe to call concurrently with replay: parallel
// sweep drivers intern once up front and then share the trace read-only.
func (t *Trace) EnsureIDs() *Trace {
	if t.Interner == nil {
		t.Interner = core.NewInterner()
	}
	for _, c := range t.Conns {
		for _, b := range c.Batches {
			for i := range b {
				if b[i].ID == core.NoTarget {
					b[i].ID = t.Interner.Intern(b[i].Target)
				}
			}
		}
	}
	return t
}

// Requests returns the total request count.
func (t *Trace) Requests() int {
	n := 0
	for _, c := range t.Conns {
		n += c.Requests()
	}
	return n
}

// Bytes returns the total response bytes.
func (t *Trace) Bytes() int64 {
	var b int64
	for _, c := range t.Conns {
		b += c.Bytes()
	}
	return b
}

// WorkingSetBytes returns the summed size of distinct targets.
func (t *Trace) WorkingSetBytes() int64 {
	var b int64
	for _, s := range t.Catalog() {
		b += s
	}
	return b
}

// Flatten10 converts the trace to HTTP/1.0 form: every request becomes its
// own single-request connection, in the original order. This produces the
// paper's "HTTP/1.0 workload" from the same request stream. Interned IDs
// carry over with the requests. The copied requests and the one-batch lists
// live in two backing arrays, each slice capped at its length.
func (t *Trace) Flatten10() *Trace {
	out := &Trace{Sizes: t.Sizes, Interner: t.Interner}
	n := t.Requests()
	if n == 0 {
		return out
	}
	out.Conns = make([]core.Connection, n)
	batches := make([]core.Batch, n)
	reqs := make([]core.Request, n)
	k := 0
	for _, c := range t.Conns {
		for _, b := range c.Batches {
			k += copy(reqs[k:], b)
		}
	}
	for i := range reqs {
		batches[i] = reqs[i : i+1 : i+1]
		out.Conns[i].Batches = batches[i : i+1 : i+1]
	}
	return out
}

// Stats summarizes a trace the way Section 6 of the paper reports its
// workload.
type Stats struct {
	Connections    int
	Requests       int
	Targets        int
	TotalBytes     int64
	WorkingSet     int64
	MeanRespBytes  float64
	MeanReqPerConn float64
	MeanBatchSize  float64
	// Coverage[i] is the memory in bytes needed to cover
	// CoveragePoints[i] fraction of all requests when caching the most
	// popular targets first.
	CoveragePoints []float64
	Coverage       []int64
}

// ComputeStats derives Stats from a trace; coverage is evaluated at the
// given request-fraction points (e.g. 0.97, 0.99, 1.0).
func ComputeStats(t *Trace, points ...float64) Stats {
	if len(points) == 0 {
		points = []float64{0.97, 0.99, 1.0}
	}
	sort.Float64s(points)
	cat := t.Catalog()
	s := Stats{
		Connections:    len(t.Conns),
		Requests:       t.Requests(),
		Targets:        len(cat),
		TotalBytes:     t.Bytes(),
		WorkingSet:     t.WorkingSetBytes(),
		CoveragePoints: points,
	}
	if s.Requests > 0 {
		s.MeanRespBytes = float64(s.TotalBytes) / float64(s.Requests)
	}
	if s.Connections > 0 {
		s.MeanReqPerConn = float64(s.Requests) / float64(s.Connections)
	}
	batches := 0
	for _, c := range t.Conns {
		batches += len(c.Batches)
	}
	if batches > 0 {
		s.MeanBatchSize = float64(s.Requests) / float64(batches)
	}

	// Coverage curve: most-requested targets first.
	freq := make(map[core.Target]int, len(cat))
	for _, c := range t.Conns {
		for _, b := range c.Batches {
			for _, r := range b {
				freq[r.Target]++
			}
		}
	}
	type tf struct {
		t core.Target
		n int
	}
	order := make([]tf, 0, len(freq))
	for tgt, n := range freq {
		order = append(order, tf{tgt, n})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].n != order[j].n {
			return order[i].n > order[j].n
		}
		return order[i].t < order[j].t
	})
	s.Coverage = make([]int64, len(points))
	var bytes int64
	covered := 0
	pi := 0
	for _, e := range order {
		bytes += cat[e.t]
		covered += e.n
		for pi < len(points) && float64(covered) >= points[pi]*float64(s.Requests) {
			s.Coverage[pi] = bytes
			pi++
		}
		if pi == len(points) {
			break
		}
	}
	for ; pi < len(points); pi++ {
		s.Coverage[pi] = bytes
	}
	return s
}

// String renders the stats in the style of the paper's Section 6 text.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"trace: %d connections, %d requests, %d targets, %.1f MB working set\n"+
			"mean response %.0f B, %.2f requests/connection, %.2f requests/batch\n",
		s.Connections, s.Requests, s.Targets, mb(s.WorkingSet),
		s.MeanRespBytes, s.MeanReqPerConn, s.MeanBatchSize)
	for i, p := range s.CoveragePoints {
		out += fmt.Sprintf("memory to cover %.0f%% of requests: %.1f MB\n",
			p*100, mb(s.Coverage[i]))
	}
	return out
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
