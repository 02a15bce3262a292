package cluster_test

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/loadgen"
	"phttp/internal/metrics"
)

var promComment = regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) (\S.*)$`)
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (\S+)$`)

// promHist is what checkScrape tracks of one histogram family.
type promHist struct {
	le, cum, inf, count float64 // le starts at -Inf, count at -1
	sawInf, sawSum      bool
}

// checkScrape checks one text exposition the way a scraper reads it:
// every line is a HELP or TYPE comment or a `name{labels} value` sample;
// each family has one HELP and one TYPE, with its samples after the TYPE;
// each histogram's le bounds strictly increase and end at +Inf, its
// cumulative counts never decrease, it has a _sum, and its _count equals
// its +Inf bucket; and the scrape carries at least one histogram.
func checkScrape(text string) error {
	comments := map[string]bool{} // "HELP name" and "TYPE name"
	hists := map[string]*promHist{}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if m := promComment.FindStringSubmatch(line); m != nil {
			if comments[m[1]+" "+m[2]] {
				return fmt.Errorf("line %d: second %s for %s", i+1, m[1], m[2])
			}
			comments[m[1]+" "+m[2]] = true
			if m[1] == "TYPE" && m[3] == "histogram" {
				hists[m[2]] = &promHist{le: math.Inf(-1), count: -1}
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d is neither a HELP/TYPE comment nor a sample: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return fmt.Errorf("line %d: value %q: %v", i+1, m[3], err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum"), "_count")
		h := hists[base]
		if h == nil {
			if !comments["TYPE "+m[1]] {
				return fmt.Errorf("line %d: sample of %s before its TYPE", i+1, m[1])
			}
			continue
		}
		switch suffix := m[1][len(base):]; {
		case suffix == "_sum":
			h.sawSum = true
		case suffix == "_count":
			h.count = v
		case h.sawInf:
			return fmt.Errorf("line %d: %s bucket after +Inf", i+1, base)
		case v < h.cum:
			return fmt.Errorf("line %d: %s cumulative count %g after %g", i+1, base, v, h.cum)
		case m[2] == `le="+Inf"`:
			h.sawInf, h.inf, h.cum = true, v, v
		default:
			le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(m[2], `le="`), `"`), 64)
			if err != nil || le <= h.le {
				return fmt.Errorf("line %d: %s le bound %s does not follow %g", i+1, base, m[2], h.le)
			}
			h.le, h.cum = le, v
		}
	}
	for key := range comments {
		if name := key[len("HELP "):]; !comments["HELP "+name] || !comments["TYPE "+name] {
			return fmt.Errorf("%s lacks a HELP or a TYPE", name)
		}
	}
	for name, h := range hists {
		if !h.sawInf || !h.sawSum || h.count != h.inf {
			return fmt.Errorf("%s: +Inf bucket %v (%g), _sum %v, _count %g", name, h.sawInf, h.inf, h.sawSum, h.count)
		}
	}
	if len(hists) == 0 {
		return fmt.Errorf("no histogram family")
	}
	return nil
}

// scrapeStatus performs one GET against the front-end's status handler.
func scrapeStatus(t *testing.T, fe *cluster.FrontEnd) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	fe.StatusHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	return rec
}

// TestStatusEndpoint drives traffic through a relay cluster and checks
// the Prometheus exposition: content type, the expected metric families
// (golden on the HELP/TYPE headers), counter values agreeing with the
// front-end's accessors, and a well-formed cumulative latency histogram.
func TestStatusEndpoint(t *testing.T) {
	cfg, tr := testConfig(t, 2, "lard", core.RelayFrontEnd)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()
	runLoad(t, cl.Addr(), tr, false)

	// A classic single front-end has no tier: the tier accessors must
	// report the degenerate values, and the back-ends a real hit rate.
	if cl.FE.PeerAddr() != "" || cl.FE.RemoteOpens() != 0 ||
		cl.FE.TierSyncs() != 0 || cl.FE.TierFallbacks() != 0 {
		t.Error("single front-end reports tier activity")
	}
	if err := cl.FE.ConnectPeers(nil); err != nil {
		t.Errorf("ConnectPeers is documented as a no-op without a tier, got %v", err)
	}
	if hr := cl.HitRate(); hr < 0 || hr > 1 {
		t.Errorf("HitRate = %g, want in [0,1]", hr)
	}

	rec := scrapeStatus(t, cl.FE)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != metrics.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.PromContentType)
	}
	body := rec.Body.String()

	// Golden header sequence: the families and their types are the
	// endpoint's contract with a scraper.
	var headers []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			headers = append(headers, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	wantHeaders := []string{
		"phttp_fe_requests_total counter",
		"phttp_fe_connections_total counter",
		"phttp_fe_unavailable_total counter",
		"phttp_fe_redispatches_total counter",
		"phttp_fe_utilization gauge",
		"phttp_fe_backends gauge",
		"phttp_fe_request_duration_seconds histogram",
	}
	if strings.Join(headers, ";") != strings.Join(wantHeaders, ";") {
		t.Errorf("TYPE headers = %v, want %v", headers, wantHeaders)
	}

	wantReqs := int64(tr.Requests())
	for _, probe := range []struct {
		line string
		want int64
	}{
		{"phttp_fe_requests_total", wantReqs},
		{"phttp_fe_unavailable_total", 0},
		{"phttp_fe_redispatches_total", 0},
		{`phttp_fe_backends{state="up"}`, 2},
		{`phttp_fe_backends{state="down"}`, 0},
		{"phttp_fe_request_duration_seconds_count", wantReqs},
	} {
		if got, ok := promValue(body, probe.line); !ok || got != float64(probe.want) {
			t.Errorf("%s = %v (found=%v), want %d", probe.line, got, ok, probe.want)
		}
	}

	// The histogram must expose cumulative, monotone buckets ending at
	// +Inf == count.
	bucketRe := regexp.MustCompile(`(?m)^phttp_fe_request_duration_seconds_bucket\{le="([^"]+)"\} (\d+)$`)
	matches := bucketRe.FindAllStringSubmatch(body, -1)
	if len(matches) < 2 {
		t.Fatalf("want ≥2 bucket lines, got %d in:\n%s", len(matches), body)
	}
	prevBound, prevCum := -1.0, int64(-1)
	for _, m := range matches {
		cum, _ := strconv.ParseInt(m[2], 10, 64)
		if cum < prevCum {
			t.Errorf("bucket counts not cumulative: %d after %d", cum, prevCum)
		}
		prevCum = cum
		if m[1] == "+Inf" {
			if cum != wantReqs {
				t.Errorf("+Inf bucket = %d, want %d", cum, wantReqs)
			}
			continue
		}
		bound, err := strconv.ParseFloat(m[1], 64)
		if err != nil || bound <= prevBound {
			t.Errorf("bad le bound %q after %g (err=%v)", m[1], prevBound, err)
		}
		prevBound = bound
	}
}

// promValue extracts an unlabeled (or exactly-labeled) sample value.
func promValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		return v, err == nil
	}
	return 0, false
}

func TestStatusMethodNotAllowed(t *testing.T) {
	cfg, _ := testConfig(t, 2, "wrr", core.BEForwarding)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()
	rec := httptest.NewRecorder()
	cl.FE.StatusHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/status", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /status = %d, want %d", rec.Code, http.StatusMethodNotAllowed)
	}
}

// TestCheckScrapeRejectsViolations hands checkScrape one scrape per
// property it enforces, each broken in one place, and a valid one.
func TestCheckScrapeRejectsViolations(t *testing.T) {
	const header = "# HELP h x\n# TYPE h histogram\n"
	const good = `h_bucket{le="0.001"} 2` + "\n" + `h_bucket{le="1"} 4` + "\n" +
		`h_bucket{le="+Inf"} 4` + "\nh_sum 0.5\nh_count 4\n"
	const counterHead = "# HELP c x\n# TYPE c counter\n"
	const counter = counterHead + "c 1\n"
	cases := []struct{ name, text string }{
		{"free-form comment", "# scraped\n" + header + good},
		{"unterminated labels", header + good + counterHead + `c{a="b" 1` + "\n"},
		{"bad value", header + good + counterHead + "c abc\n"},
		{"second HELP", "# HELP h y\n" + header + good},
		{"second TYPE", header + "# TYPE h histogram\n" + good},
		{"TYPE without HELP", "# TYPE h histogram\n" + good},
		{"HELP without TYPE", header + good + "# HELP c x\n"},
		{"sample before TYPE", "c 1\n" + counter + header + good},
		{"bucket before TYPE", good + header},
		{"non-monotone buckets", header + `h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n"},
		{"duplicate bound", header + `h_bucket{le="1"} 2` + "\n" + `h_bucket{le="1"} 2` + "\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\n"},
		{"decreasing bound", header + `h_bucket{le="2"} 2` + "\n" + `h_bucket{le="1"} 2` + "\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\n"},
		{"missing +Inf", header + `h_bucket{le="1"} 5` + "\nh_sum 1\nh_count 5\n"},
		{"bucket after +Inf", header + `h_bucket{le="+Inf"} 5` + "\n" + `h_bucket{le="1"} 5` + "\nh_sum 1\nh_count 5\n"},
		{"+Inf below a bucket", header + `h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 4` + "\nh_sum 1\nh_count 4\n"},
		{"missing sum", header + `h_bucket{le="+Inf"} 0` + "\nh_count 0\n"},
		{"count mismatch", header + `h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 7\n"},
		{"missing count", header + `h_bucket{le="+Inf"} 0` + "\nh_sum 0\n"},
		{"no histogram family", counter},
	}
	for _, tc := range cases {
		if err := checkScrape(tc.text); err == nil {
			t.Errorf("%s: checkScrape accepted\n%s", tc.name, tc.text)
		}
	}
	if err := checkScrape(counter + header + good); err != nil {
		t.Errorf("valid scrape rejected: %v", err)
	}
	h := core.NewLatencyHist()
	for v := int64(1); v < 1<<30; v *= 3 {
		h.Record(v)
	}
	var w metrics.PromWriter
	w.Counter("a_total", "A.", 1)
	w.GaugeVec("b", "B.", metrics.LabeledValue{Label: `x="y"`, Value: 2})
	w.Histogram("c_seconds", "C.", h, 1e-6)
	if err := checkScrape(w.String()); err != nil {
		t.Errorf("PromWriter output rejected: %v\n%s", err, w.String())
	}
}

// TestStatusExpositionParsesUnderLoad scrapes the status endpoint over
// real HTTP while the cluster serves traffic and puts every scrape
// through checkScrape: each snapshot must be valid scrape input and the
// latency histogram must hold its invariants even when sampled
// mid-update.
func TestStatusExpositionParsesUnderLoad(t *testing.T) {
	cfg, tr := testConfig(t, 2, "extlard", core.BEForwarding)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	srv := httptest.NewServer(cl.FE.StatusHandler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL)
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("scrape read: %v", err)
				return
			}
			if err := checkScrape(string(body)); err != nil {
				t.Errorf("scrape %d: %v\n%s", scrapes.Load(), err, body)
				return
			}
			scrapes.Add(1)
		}
	}()
	if _, err := loadgen.Run(loadgen.Config{
		Addr:        cl.Addr(),
		Trace:       tr,
		Concurrency: 8,
	}); err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	close(stop)
	wg.Wait()
	if scrapes.Load() == 0 {
		t.Fatal("no scrape completed during the load run")
	}
}

// TestStatusScrapeUnderLoad scrapes concurrently with live traffic; under
// -race this proves the endpoint reads its sources without torn state.
func TestStatusScrapeUnderLoad(t *testing.T) {
	cfg, tr := testConfig(t, 2, "extlard", core.BEForwarding)
	cl, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rec := scrapeStatus(t, cl.FE); rec.Code != http.StatusOK {
				t.Errorf("scrape under load: %d", rec.Code)
				return
			}
		}
	}()
	if _, err := loadgen.Run(loadgen.Config{
		Addr:        cl.Addr(),
		Trace:       tr,
		Concurrency: 8,
	}); err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	close(stop)
	wg.Wait()

	// BE forwarding records one sample per dispatched request at
	// forward time: the histogram must account for every request.
	if got, want := cl.FE.Latency().Count(), cl.FE.Requests(); got != want {
		t.Errorf("latency samples = %d, requests = %d", got, want)
	}
}
