package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"phttp/internal/core"
)

// --- CLF parse/format ---

func TestCLFRoundTrip(t *testing.T) {
	e := Entry{
		Client: "client0001.example.edu",
		Time:   90061*core.Second + 120,
		Target: "/docs/page00042.html",
		Size:   34567,
		Status: 200,
	}
	line := FormatCLF(e)
	got, err := ParseCLF(line)
	if err != nil {
		t.Fatalf("ParseCLF(%q): %v", line, err)
	}
	// CLF carries second-resolution timestamps.
	e.Time -= e.Time % core.Second
	if got != e {
		t.Errorf("round trip = %+v, want %+v", got, e)
	}
}

func TestCLFParseDashSize(t *testing.T) {
	e, err := ParseCLF(`h - - [01/Oct/1998:00:00:01 +0000] "GET /x HTTP/1.0" 304 -`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != 0 || e.Status != 304 {
		t.Errorf("got %+v", e)
	}
}

func TestCLFParseErrors(t *testing.T) {
	bad := []string{
		"",
		"host",
		"host - - no timestamp",
		`h - - [01/Oct/1998:00:00:01 +0000] "GET" 200 5`,
		`h - - [01/Oct/1998:00:00:01 +0000] "GET /x HTTP/1.0" abc 5`,
		`h - - [01/Oct/1998:00:00:01 +0000] "GET /x HTTP/1.0" 200 xyz`,
		`h - - [bad time] "GET /x HTTP/1.0" 200 5`,
		`h - - [01/Oct/1998:00:00:01 +0000] "GET /x HTTP/1.0`,
	}
	for _, line := range bad {
		if _, err := ParseCLF(line); err == nil {
			t.Errorf("ParseCLF(%q) accepted malformed input", line)
		}
	}
}

func TestReadCLFSkipsJunk(t *testing.T) {
	log := `h1 - - [01/Oct/1998:00:00:01 +0000] "GET /a HTTP/1.0" 200 100
garbage line that is not CLF

h2 - - [01/Oct/1998:00:00:02 +0000] "GET /b HTTP/1.0" 200 200
`
	entries, malformed, err := ReadCLF(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || malformed != 1 {
		t.Errorf("got %d entries, %d malformed; want 2, 1", len(entries), malformed)
	}
}

func TestWriteReadCLF(t *testing.T) {
	entries := []Entry{
		{Client: "a", Time: 1 * core.Second, Target: "/x", Size: 1, Status: 200},
		{Client: "b", Time: 2 * core.Second, Target: "/y", Size: 2, Status: 200},
	}
	var buf bytes.Buffer
	if err := WriteCLF(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, malformed, err := ReadCLF(&buf)
	if err != nil || malformed != 0 {
		t.Fatalf("ReadCLF: %v (%d malformed)", err, malformed)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", got, entries)
	}
}

// --- reconstruction heuristics ---

func entry(client string, at core.Micros, target string) Entry {
	return Entry{Client: client, Time: at, Target: core.Target(target), Size: 100, Status: 200}
}

func TestReconstructSplitsConnectionsAtIdleTimeout(t *testing.T) {
	entries := []Entry{
		entry("c", 0, "/a"),
		entry("c", 5*core.Second, "/b"),  // same connection (< 15s)
		entry("c", 25*core.Second, "/c"), // new connection (>= 15s gap)
	}
	tr := Reconstruct(entries, DefaultIdleTimeout, DefaultBatchWindow)
	if len(tr.Conns) != 2 {
		t.Fatalf("got %d connections, want 2", len(tr.Conns))
	}
	if tr.Conns[0].Requests() != 2 || tr.Conns[1].Requests() != 1 {
		t.Errorf("request split %d/%d, want 2/1",
			tr.Conns[0].Requests(), tr.Conns[1].Requests())
	}
}

func TestReconstructBatching(t *testing.T) {
	// First request alone; then two requests 100ms apart (one batch);
	// then, after 2s, another request (new batch).
	entries := []Entry{
		entry("c", 0, "/page"),
		entry("c", 2*core.Second, "/o1"),
		entry("c", 2*core.Second+100*core.Millisecond, "/o2"),
		entry("c", 5*core.Second, "/o3"),
	}
	tr := Reconstruct(entries, DefaultIdleTimeout, DefaultBatchWindow)
	if len(tr.Conns) != 1 {
		t.Fatalf("got %d connections, want 1", len(tr.Conns))
	}
	b := tr.Conns[0].Batches
	if len(b) != 3 {
		t.Fatalf("got %d batches, want 3 (first alone, pipelined pair, straggler)", len(b))
	}
	if len(b[0]) != 1 || b[0][0].Target != "/page" {
		t.Errorf("batch 0 = %v", b[0])
	}
	if len(b[1]) != 2 {
		t.Errorf("batch 1 has %d requests, want 2", len(b[1]))
	}
	if len(b[2]) != 1 || b[2][0].Target != "/o3" {
		t.Errorf("batch 2 = %v", b[2])
	}
}

func TestReconstructDropsErrors(t *testing.T) {
	entries := []Entry{
		entry("c", 0, "/a"),
		{Client: "c", Time: core.Second, Target: "/404", Size: 0, Status: 404},
	}
	tr := Reconstruct(entries, DefaultIdleTimeout, DefaultBatchWindow)
	if tr.Requests() != 1 {
		t.Errorf("got %d requests, want 1 (non-2xx dropped)", tr.Requests())
	}
}

func TestReconstructInterleavedClients(t *testing.T) {
	entries := []Entry{
		entry("a", 0, "/a1"),
		entry("b", 100*core.Millisecond, "/b1"),
		entry("a", 200*core.Millisecond, "/a2"),
		entry("b", 300*core.Millisecond, "/b2"),
	}
	tr := Reconstruct(entries, DefaultIdleTimeout, DefaultBatchWindow)
	if len(tr.Conns) != 2 {
		t.Fatalf("got %d connections, want 2 (one per client)", len(tr.Conns))
	}
	for _, c := range tr.Conns {
		if c.Requests() != 2 {
			t.Errorf("connection has %d requests, want 2", c.Requests())
		}
	}
}

func TestReconstructUnsortedInput(t *testing.T) {
	entries := []Entry{
		entry("c", 2*core.Second, "/b"),
		entry("c", 0, "/a"),
	}
	tr := Reconstruct(entries, DefaultIdleTimeout, DefaultBatchWindow)
	if len(tr.Conns) != 1 {
		t.Fatalf("got %d connections", len(tr.Conns))
	}
	if tr.Conns[0].Batches[0][0].Target != "/a" {
		t.Error("reconstruction did not sort by time")
	}
}

// --- synthetic generator ---

func TestSynthDeterminism(t *testing.T) {
	cfg := SmallSynthConfig()
	t1 := NewSynth(cfg).Generate()
	t2 := NewSynth(cfg).Generate()
	if !reflect.DeepEqual(t1.Conns, t2.Conns) {
		t.Error("same seed produced different traces")
	}
	cfg.Seed = 99
	t3 := NewSynth(cfg).Generate()
	if reflect.DeepEqual(t1.Conns, t3.Conns) {
		t.Error("different seeds produced identical traces")
	}
}

// TestSynthParallelDeterminism is the generation golden: for a fixed
// config, the trace must be identical whatever the worker count — block
// streams, not scheduling, carry the randomness. The connections span
// several blocks.
func TestSynthParallelDeterminism(t *testing.T) {
	cfg := SmallSynthConfig()
	cfg.Connections = 3*blockSize + 100
	ref := NewSynth(cfg).GenerateParallel(1)
	for _, workers := range []int{2, 3, 8, 0} {
		got := NewSynth(cfg).GenerateParallel(workers)
		if !reflect.DeepEqual(ref.Conns, got.Conns) {
			t.Fatalf("workers=%d produced a different trace than serial", workers)
		}
		if !reflect.DeepEqual(ref.Sizes, got.Sizes) {
			t.Fatalf("workers=%d produced a different sizes table", workers)
		}
		if ref.Interner.Len() != got.Interner.Len() {
			t.Fatalf("workers=%d interned %d targets, serial %d",
				workers, got.Interner.Len(), ref.Interner.Len())
		}
	}
}

// TestGenerateBothMatchesGenerate pins the stream split: connection draws
// come from the block streams and timing from the reserved timing stream,
// so the structured trace is the same with or without entry generation.
func TestGenerateBothMatchesGenerate(t *testing.T) {
	cfg := SmallSynthConfig()
	cfg.Connections = 800
	_, both := NewSynth(cfg).GenerateBoth()
	direct := NewSynth(cfg).Generate()
	if !reflect.DeepEqual(both.Conns, direct.Conns) {
		t.Error("GenerateBoth's trace differs from Generate's")
	}
}

// TestSynthEmbeddedObjectsTrackMean guards the bounded-retry fix: the
// popularity-skewed draw collides constantly on the hot head, and the old
// single-fallback break under-filled pages, dragging the mean embedded
// count well below ObjectsPerPage.
func TestSynthEmbeddedObjectsTrackMean(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Connections = 0 // catalog only
	s := NewSynth(cfg)
	total := 0
	for _, objs := range s.embedded {
		total += len(objs)
	}
	mean := float64(total) / float64(len(s.embedded))
	if rel := mean/cfg.ObjectsPerPage - 1; rel < -0.05 || rel > 0.05 {
		t.Errorf("mean embedded objects/page = %.2f, want %.1f ±5%%", mean, cfg.ObjectsPerPage)
	}
}

func TestSynthTraceShape(t *testing.T) {
	tr := NewSynth(SmallSynthConfig()).Generate()
	st := ComputeStats(tr)
	if st.Connections == 0 || st.Requests == 0 {
		t.Fatal("empty trace")
	}
	if st.MeanRespBytes >= 13<<10 {
		t.Errorf("mean response %.0f B, paper requires < 13 KB", st.MeanRespBytes)
	}
	if st.MeanReqPerConn < 2 {
		t.Errorf("mean requests/connection %.1f, persistent connections should carry several", st.MeanReqPerConn)
	}
	if st.MeanBatchSize < 1 {
		t.Errorf("mean batch size %.2f", st.MeanBatchSize)
	}
	for target, size := range tr.Sizes {
		if size <= 0 {
			t.Fatalf("target %q has size %d", target, size)
		}
	}
}

func TestSynthSizesMatchTrace(t *testing.T) {
	s := NewSynth(SmallSynthConfig())
	catalog := s.Sizes()
	tr := s.Generate()
	for target, size := range tr.Sizes {
		if catalog[target] != size {
			t.Fatalf("catalog says %q is %d bytes, trace says %d",
				target, catalog[target], size)
		}
	}
}

// The round-trip property at the heart of the workload path: generating
// CLF entries and reconstructing them with the paper's heuristics yields
// the same connection/batch structure the generator intended.
func TestSynthEntriesReconstructRoundTrip(t *testing.T) {
	cfg := SmallSynthConfig()
	cfg.Connections = 500
	entries, direct := NewSynth(cfg).GenerateBoth()
	rec := Reconstruct(entries, DefaultIdleTimeout, DefaultBatchWindow)

	if rec.Requests() != direct.Requests() {
		t.Fatalf("reconstructed %d requests, generated %d", rec.Requests(), direct.Requests())
	}
	if len(rec.Conns) != len(direct.Conns) {
		t.Fatalf("reconstructed %d connections, generated %d", len(rec.Conns), len(direct.Conns))
	}
	// Connection order differs (per-client clocks), so compare multisets
	// of connection shapes.
	shape := func(tr *Trace) []string {
		out := make([]string, 0, len(tr.Conns))
		for _, c := range tr.Conns {
			var b strings.Builder
			for _, batch := range c.Batches {
				for _, r := range batch {
					b.WriteString(string(r.Target))
					b.WriteByte(',')
				}
				b.WriteByte('|')
			}
			out = append(out, b.String())
		}
		sort.Strings(out)
		return out
	}
	got, want := shape(rec), shape(direct)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("connection shape mismatch at %d:\ngot  %s\nwant %s", i, got[i], want[i])
		}
	}
}

// --- stats ---

func TestFlatten10(t *testing.T) {
	tr := NewSynth(SmallSynthConfig()).Generate()
	flat := tr.Flatten10()
	if flat.Requests() != tr.Requests() {
		t.Errorf("flatten changed request count: %d vs %d", flat.Requests(), tr.Requests())
	}
	if len(flat.Conns) != tr.Requests() {
		t.Errorf("flatten: %d connections, want one per request (%d)", len(flat.Conns), tr.Requests())
	}
	var want []core.Connection
	for _, c := range tr.Conns {
		for _, b := range c.Batches {
			for _, r := range b {
				want = append(want, core.Connection{Batches: []core.Batch{{r}}})
			}
		}
	}
	if !reflect.DeepEqual(flat.Conns, want) {
		t.Error("flattened trace differs from one single-request connection per request")
	}
	// The connections share backing arrays, so each slice must end where
	// its neighbour begins.
	for i, c := range flat.Conns {
		if cap(c.Batches) != len(c.Batches) || cap(c.Batches[0]) != len(c.Batches[0]) {
			t.Fatalf("connection %d: batch list cap %d len %d, batch cap %d len %d",
				i, cap(c.Batches), len(c.Batches), cap(c.Batches[0]), len(c.Batches[0]))
		}
	}
	if empty := (&Trace{}).Flatten10(); empty.Conns != nil {
		t.Errorf("flattening an empty trace gave %d connections", len(empty.Conns))
	}
}

// EnsureIDs still interns traces that no generator built, hand-built or
// reconstructed from a log, in first-appearance order, as the generator's
// own numbering does.
func TestEnsureIDsFirstAppearance(t *testing.T) {
	hand := (&Trace{Conns: []core.Connection{
		{Batches: []core.Batch{{{Target: "/b"}}, {{Target: "/a"}, {Target: "/b"}}}},
		{Batches: []core.Batch{{{Target: "/c"}, {Target: "/a"}}}},
	}}).EnsureIDs()
	cfg := SmallSynthConfig()
	cfg.Connections = 300
	entries, gen := NewSynth(cfg).GenerateBoth()
	rec := Reconstruct(entries, DefaultIdleTimeout, DefaultBatchWindow)
	for name, tr := range map[string]*Trace{"hand-built": hand, "reconstructed": rec, "generated": gen} {
		next := core.TargetID(1)
		seen := map[core.Target]core.TargetID{}
		for _, c := range tr.Conns {
			for _, b := range c.Batches {
				for _, r := range b {
					id, ok := seen[r.Target]
					if !ok {
						id = next
						seen[r.Target] = id
						next++
					}
					if r.ID != id || tr.Interner.Name(id) != r.Target {
						t.Fatalf("%s: %q has ID %d, want %d in first-appearance order", name, r.Target, r.ID, id)
					}
				}
			}
		}
		if tr.Interner.Len() != len(seen) {
			t.Errorf("%s: interner holds %d targets, the trace %d", name, tr.Interner.Len(), len(seen))
		}
	}
}

// Every generated name is the one the catalog's format gives, including
// past five digits.
func TestSynthNames(t *testing.T) {
	names := catalogNames(100002, 100002)
	for _, d := range []int{0, 7, 99, 12345, 100001} {
		if want := core.Target(fmt.Sprintf("/docs/page%05d.html", d)); names[d] != want {
			t.Errorf("page %d named %q, want %q", d, names[d], want)
		}
		if want := core.Target(fmt.Sprintf("/img/obj%05d", d)); names[100002+d] != want {
			t.Errorf("object %d named %q, want %q", d, names[100002+d], want)
		}
	}
}

func TestComputeStatsCoverageMonotonic(t *testing.T) {
	tr := NewSynth(SmallSynthConfig()).Generate()
	st := ComputeStats(tr, 0.5, 0.9, 0.99, 1.0)
	for i := 1; i < len(st.Coverage); i++ {
		if st.Coverage[i] < st.Coverage[i-1] {
			t.Errorf("coverage not monotone: %v", st.Coverage)
		}
	}
	last := st.Coverage[len(st.Coverage)-1]
	if last > st.WorkingSet {
		t.Errorf("coverage (%d) exceeds working set (%d)", last, st.WorkingSet)
	}
	if last <= 0 {
		t.Error("full coverage is zero")
	}
}

func TestComputeStatsSkewed(t *testing.T) {
	// 9 requests for /hot (10 B), 1 for /cold (1000 B): covering 90% of
	// requests needs only the hot target's bytes.
	conns := make([]core.Connection, 0, 10)
	for i := 0; i < 9; i++ {
		conns = append(conns, core.Connection{Batches: []core.Batch{{{Target: "/hot", Size: 10}}}})
	}
	conns = append(conns, core.Connection{Batches: []core.Batch{{{Target: "/cold", Size: 1000}}}})
	tr := &Trace{Conns: conns, Sizes: map[core.Target]int64{"/hot": 10, "/cold": 1000}}
	st := ComputeStats(tr, 0.9, 1.0)
	if st.Coverage[0] != 10 {
		t.Errorf("90%% coverage = %d bytes, want 10", st.Coverage[0])
	}
	if st.Coverage[1] != 1010 {
		t.Errorf("100%% coverage = %d bytes, want 1010", st.Coverage[1])
	}
}

// Property: reconstruction preserves request counts and never invents
// targets, for arbitrary well-formed entry streams.
func TestReconstructPreservesRequests(t *testing.T) {
	f := func(raw []uint16) bool {
		entries := make([]Entry, 0, len(raw))
		for i, r := range raw {
			entries = append(entries, Entry{
				Client: string(rune('a' + int(r)%5)),
				Time:   core.Micros(i) * 700 * core.Millisecond,
				Target: core.Target(rune('A' + int(r)%11)),
				Size:   int64(r%1000) + 1,
				Status: 200,
			})
		}
		tr := Reconstruct(entries, DefaultIdleTimeout, DefaultBatchWindow)
		if tr.Requests() != len(entries) {
			return false
		}
		for _, c := range tr.Conns {
			for _, b := range c.Batches {
				for _, r := range b {
					if _, ok := tr.Sizes[r.Target]; !ok {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStatsString pins the Section 6-style rendering: one coverage line
// per requested point, sizes in MB.
func TestStatsString(t *testing.T) {
	cfg := SmallSynthConfig()
	cfg.Connections = 400
	st := ComputeStats(NewSynth(cfg).Generate(), 0.5, 1.0)
	out := st.String()
	for _, want := range []string{"connections", "working set", "cover 50%", "cover 100%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() missing %q:\n%s", want, out)
		}
	}
}

// TestGenerateEntriesMatchesBoth pins the convenience wrapper to the
// two-view generator it delegates to.
func TestGenerateEntriesMatchesBoth(t *testing.T) {
	cfg := SmallSynthConfig()
	cfg.Connections = 400
	entries := NewSynth(cfg).GenerateEntries()
	both, _ := NewSynth(cfg).GenerateBoth()
	if !reflect.DeepEqual(entries, both) {
		t.Error("GenerateEntries differs from GenerateBoth's entries")
	}
}

// The build works per document, not per request: a 10 000-connection
// trace of the default catalog, generated, interned and flattened, takes
// a bounded number of allocations (about 510 when this bound was set;
// the per-request build took some 574 000).
func TestSynthBuildAllocs(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Connections = 10000
	allocs := testing.AllocsPerRun(2, func() {
		NewSynth(cfg).Generate().Flatten10()
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 1000 {
		t.Errorf("building the trace took %.0f allocations, want at most 1000", allocs)
	}
}
