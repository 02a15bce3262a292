package trace

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"phttp/internal/core"
)

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

// EnsureIDs interns a trace that no generator built in first-appearance
// order, as the generator's own numbering does.
func TestEnsureIDsFirstAppearance(t *testing.T) {
	hand := (&Trace{Conns: []core.Connection{
		{Batches: []core.Batch{{{Target: "/b"}}, {{Target: "/a"}, {Target: "/b"}}}},
		{Batches: []core.Batch{{{Target: "/c"}, {Target: "/a"}}}},
	}}).EnsureIDs()
	cfg := SmallSynthConfig()
	cfg.Connections = 300
	gen := NewSynth(cfg).Generate()
	for name, tr := range map[string]*Trace{"hand-built": hand, "generated": gen} {
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
