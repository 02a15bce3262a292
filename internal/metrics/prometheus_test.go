package metrics

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"phttp/internal/core"
)

func TestPromCounterGaugeGolden(t *testing.T) {
	var w PromWriter
	w.Counter("phttp_requests_total", "Requests dispatched.", 42)
	w.Gauge("phttp_utilization", "Dispatcher occupancy.", 0.25)
	w.GaugeVec("phttp_backends", "Back-ends by state.",
		LabeledValue{Label: `state="up"`, Value: 3},
		LabeledValue{Label: `state="down"`, Value: 1},
	)
	want := `# HELP phttp_requests_total Requests dispatched.
# TYPE phttp_requests_total counter
phttp_requests_total 42
# HELP phttp_utilization Dispatcher occupancy.
# TYPE phttp_utilization gauge
phttp_utilization 0.25
# HELP phttp_backends Back-ends by state.
# TYPE phttp_backends gauge
phttp_backends{state="up"} 3
phttp_backends{state="down"} 1
`
	if got := w.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromHistogramEmpty(t *testing.T) {
	var w PromWriter
	w.Histogram("phttp_lat_seconds", "Latency.", core.NewLatencyHist(), 1e-6)
	want := `# HELP phttp_lat_seconds Latency.
# TYPE phttp_lat_seconds histogram
phttp_lat_seconds_bucket{le="+Inf"} 0
phttp_lat_seconds_sum 0
phttp_lat_seconds_count 0
`
	if got := w.String(); got != want {
		t.Errorf("empty histogram:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPromHistogramCumulative records a known sample set and checks the
// exposed buckets have exact cumulative counts at their le bounds.
func TestPromHistogramCumulative(t *testing.T) {
	h := core.NewLatencyHist()
	samples := []int64{0, 1, 2, 3, 100, 128, 1000, 1 << 20, 1<<20 + 5}
	for _, v := range samples {
		h.Record(v)
	}
	var w PromWriter
	w.Histogram("m", "help.", h, 1) // scale 1: bounds stay in recorded units
	bucketRe := regexp.MustCompile(`^m_bucket\{le="([^"]+)"\} (\d+)$`)
	var prevBound float64 = -1
	var prevCum int64 = -1
	var infCount int64 = -1
	for _, line := range strings.Split(w.String(), "\n") {
		m := bucketRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		cum, _ := strconv.ParseInt(m[2], 10, 64)
		if m[1] == "+Inf" {
			infCount = cum
			continue
		}
		bound, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("unparseable le bound %q", m[1])
		}
		if bound <= prevBound {
			t.Errorf("le bounds not increasing: %g after %g", bound, prevBound)
		}
		if cum < prevCum {
			t.Errorf("cumulative counts decreasing: %d after %d", cum, prevCum)
		}
		// Exact check: the cumulative count at this bound must equal the
		// number of samples ≤ bound.
		var want int64
		for _, v := range samples {
			if float64(v) <= bound {
				want++
			}
		}
		if cum != want {
			t.Errorf("le=%g: cumulative %d, want %d", bound, cum, want)
		}
		prevBound, prevCum = bound, cum
	}
	if infCount != int64(len(samples)) {
		t.Errorf("+Inf bucket = %d, want %d", infCount, len(samples))
	}
	var sum int64
	for _, v := range samples {
		sum += v
	}
	sumRe := regexp.MustCompile(`(?m)^m_sum (\S+)$`)
	m := sumRe.FindStringSubmatch(w.String())
	if m == nil {
		t.Fatalf("missing m_sum in:\n%s", w.String())
	}
	if got, _ := strconv.ParseFloat(m[1], 64); got != float64(sum) {
		t.Errorf("m_sum = %v, want %d", got, sum)
	}
}

// TestPromHistogramCountIsInfBucket scrapes a histogram while writers
// record into it: every exposition's _count equals its +Inf bucket, since
// the count is the sum of the buckets rather than a counter of its own.
func TestPromHistogramCountIsInfBucket(t *testing.T) {
	h := core.NewLatencyHist()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := g; ; v = (v*31 + 7) % 1_000_000 {
				select {
				case <-stop:
					return
				default:
					h.Record(v)
				}
			}
		}()
	}
	infRe := regexp.MustCompile(`(?m)^m_bucket\{le="\+Inf"\} (\d+)$`)
	countRe := regexp.MustCompile(`(?m)^m_count (\d+)$`)
	for i := 0; i < 100; i++ {
		var w PromWriter
		w.Histogram("m", "help.", h, 1)
		inf, count := infRe.FindStringSubmatch(w.String()), countRe.FindStringSubmatch(w.String())
		if inf == nil || count == nil {
			t.Fatalf("scrape %d lacks +Inf or _count:\n%s", i, w.String())
		}
		if inf[1] != count[1] {
			t.Fatalf("scrape %d: +Inf bucket %s, _count %s", i, inf[1], count[1])
		}
	}
	close(stop)
	wg.Wait()
}

// TestPromLinesWellFormed checks every emitted line against the text
// exposition grammar (comment, or sample with optional labels).
func TestPromLinesWellFormed(t *testing.T) {
	h := core.NewLatencyHist()
	for v := int64(1); v < 1<<30; v *= 3 {
		h.Record(v)
	}
	var w PromWriter
	w.Counter("a_total", "A.", 1)
	w.Gauge("b", "B.", 1.5)
	w.GaugeVec("c", "C.", LabeledValue{Label: `x="y"`, Value: 2})
	w.Histogram("d_seconds", "D.", h, 1e-6)
	line := regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+|[a-zA-Z_:][a-zA-Z0-9_:]*\{le="\+Inf"\} [0-9]+)$`)
	for i, l := range strings.Split(strings.TrimRight(w.String(), "\n"), "\n") {
		if !line.MatchString(l) {
			t.Errorf("line %d not well-formed: %q", i, l)
		}
	}
}
