package metrics

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"phttp/internal/core"
)

// Prometheus text exposition, hand-written (format version 0.0.4). The
// prototype front-end's /status endpoint is the consumer: a scraper wants
// HELP/TYPE headers, cumulative histogram buckets with `le` labels, and
// _sum/_count — nothing that justifies a client-library dependency.

// PromContentType is the content type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter accumulates metric families in Prometheus text format. Zero
// value is ready; it is not safe for concurrent use (build per scrape).
type PromWriter struct {
	b strings.Builder
}

// Counter appends a counter family with a single unlabeled sample.
func (w *PromWriter) Counter(name, help string, v int64) {
	w.header(name, help, "counter")
	fmt.Fprintf(&w.b, "%s %d\n", name, v)
}

// Gauge appends a gauge family with a single unlabeled sample.
func (w *PromWriter) Gauge(name, help string, v float64) {
	w.header(name, help, "gauge")
	fmt.Fprintf(&w.b, "%s %s\n", name, promFloat(v))
}

// LabeledValue is one sample of a labeled family: Label is the rendered
// label pair(s), e.g. `state="up"`.
type LabeledValue struct {
	Label string
	Value float64
}

// GaugeVec appends a gauge family with one sample per labeled value.
func (w *PromWriter) GaugeVec(name, help string, samples ...LabeledValue) {
	w.header(name, help, "gauge")
	for _, s := range samples {
		fmt.Fprintf(&w.b, "%s{%s} %s\n", name, s.Label, promFloat(s.Value))
	}
}

// Histogram appends a latency histogram in Prometheus histogram form:
// cumulative buckets, _sum and _count. The HDR histogram's 128
// sub-buckets per octave would be thousands of exposition lines, far
// finer than a scraper needs, so buckets are coalesced to one `le` bound
// per power-of-two octave spanning the recorded range (at most 64 lines
// plus +Inf). scale converts recorded units to the exposed unit — e.g.
// 1e-6 when recording microseconds into a *_seconds metric.
//
// The family is rendered from one Snapshot of h, never from the live
// histogram: a scrape concurrent with Record still gets buckets that are
// cumulative and a +Inf bucket equal to _count.
func (w *PromWriter) Histogram(name, help string, h *core.LatencyHist, scale float64) {
	w.header(name, help, "histogram")
	h = h.Snapshot()
	// Cumulative count per octave: octave k holds the values v with
	// bits.Len64(v) == k, all of which are ≤ 2^k - 1 — so that is the
	// octave's exact `le` bound and the cumulative counts are precise,
	// not bucket-approximate.
	var perOctave [65]int64
	minOct, maxOct := -1, -1
	h.Each(func(lo, hi, count int64) {
		oct := bits.Len64(uint64(hi))
		perOctave[oct] += count
		if minOct < 0 || oct < minOct {
			minOct = oct
		}
		if oct > maxOct {
			maxOct = oct
		}
	})
	var cum int64
	if minOct >= 0 {
		for oct := minOct; oct <= maxOct; oct++ {
			cum += perOctave[oct]
			bound := float64(uint64(1)<<uint(oct)-1) * scale
			fmt.Fprintf(&w.b, "%s_bucket{le=\"%s\"} %d\n", name, promFloat(bound), cum)
		}
	}
	fmt.Fprintf(&w.b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(&w.b, "%s_sum %s\n", name, promFloat(float64(h.Sum())*scale))
	fmt.Fprintf(&w.b, "%s_count %d\n", name, h.Count())
}

// String returns the accumulated exposition text.
func (w *PromWriter) String() string { return w.b.String() }

func (w *PromWriter) header(name, help, typ string) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promFloat renders a float the way Prometheus clients do: shortest
// round-trip representation.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
