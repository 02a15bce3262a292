package sim

import (
	"fmt"

	"phttp/internal/core"
)

// Result is the outcome of one simulation run, measured after warmup.
type Result struct {
	Combo string
	// Policy is the canonical dispatch name of the policy that
	// ran ("wrr", "lard", "lardr" or "extlard") — the same string the
	// prototype front-end reports for the same configuration.
	Policy string
	Server string
	Nodes  int

	// Requests served and simulated time after warmup.
	Requests int64
	SimTime  core.Micros
	// Events is the total number of discrete events the engine processed
	// over the whole run (including warmup) — the denominator of the
	// ns/event and events/sec benchmark metrics. Deterministic for a given
	// (config, trace): identical across serial and parallel sweeps.
	Events int64

	// Throughput is requests/second, the paper's primary metric.
	Throughput float64
	// BandwidthMbps is delivered body bandwidth in megabits/second.
	BandwidthMbps float64
	// MeanDelay is the mean per-request response delay (from batch
	// arrival at the front-end to transmit completion); Figure 3's
	// y-axis.
	MeanDelay core.Micros

	// HitRate is the aggregate back-end cache hit rate after warmup.
	HitRate float64
	// CPUUtil and DiskUtil are mean back-end utilizations; FEUtilization
	// is the front-end CPU utilization (Section 8.2 reports ~60% at six
	// Apache back-ends).
	CPUUtil       float64
	DiskUtil      float64
	FEUtilization float64

	// Extended-LARD decision counters (zero for other policies).
	LocalServes   int64
	RemoteServes  int64
	Migrations    int64
	CacheBypasses int64

	// Latency summarizes the post-warmup per-request delay distribution
	// (same delay definition as MeanDelay, batch arrival to transmit
	// completion), read from the run's HDR-style histogram. A value type.
	// Deterministic for a given (config, trace).
	Latency LatencySummary

	// Churn counters (zero for churn-free runs). Redispatches counts
	// requests and connection opens re-sent to a live node after their
	// serving node crashed; FailedRequests counts requests abandoned when
	// the retry budget ran out or no node was up (the connection-close
	// fallback). Both cover the whole run — a crash during warmup still
	// shows up here.
	Redispatches   int64
	FailedRequests int64
}

// LatencySummary is the tail-latency digest of one run: quantile upper
// bounds from the fixed-bucket histogram (relative error ≤ 2^-7, see
// core.LatencyHist). Count covers post-warmup served requests; Max is
// whole-run (a warmup snapshot subtraction cannot recover which maximum
// came after the warm point).
type LatencySummary struct {
	Count int64
	P50   core.Micros
	P95   core.Micros
	P99   core.Micros
	P999  core.Micros
	Max   core.Micros
	// SLOViolations counts post-warmup requests slower than
	// Config.SLOTarget; zero when no target was set.
	SLOViolations int64
}

// Summarize digests a delay histogram, counting violations against the
// given target (0 = no target).
func Summarize(h *core.LatencyHist, target core.Micros) LatencySummary {
	ls := LatencySummary{
		Count: h.Count(),
		P50:   core.Micros(h.Quantile(0.50)),
		P95:   core.Micros(h.Quantile(0.95)),
		P99:   core.Micros(h.Quantile(0.99)),
		P999:  core.Micros(h.Quantile(0.999)),
		Max:   core.Micros(h.Max()),
	}
	if target > 0 {
		ls.SLOViolations = h.CountAbove(int64(target))
	}
	return ls
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-28s n=%-2d %8.1f req/s  hit=%5.1f%%  cpu=%5.1f%%  disk=%5.1f%%  fe=%5.1f%%  p99=%.1fms p999=%.1fms",
		r.Combo, r.Nodes, r.Throughput, 100*r.HitRate, 100*r.CPUUtil, 100*r.DiskUtil, 100*r.FEUtilization,
		float64(r.Latency.P99)/float64(core.Millisecond), float64(r.Latency.P999)/float64(core.Millisecond))
}
