package trace

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"phttp/internal/core"
	"phttp/internal/simcore"
)

// SynthConfig parameterizes the synthetic workload generator that stands in
// for the Rice University trace (see DESIGN.md §4.1). The generator models a
// departmental Web site: HTML pages with embedded objects, Zipf-like page
// popularity, heavy-tailed object sizes, and client sessions that map
// naturally onto persistent connections with pipelined batches.
type SynthConfig struct {
	Seed uint64

	// Pages and Objects set the document population; the working set is
	// roughly Pages*meanPageSize + Objects*meanObjectSize.
	Pages   int
	Objects int

	// ObjectsPerPage is the mean number of embedded objects per page.
	ObjectsPerPage float64

	// ZipfAlpha shapes page popularity (higher = more skew).
	ZipfAlpha float64

	// Size model: lognormal body with a Pareto tail.
	PageLogMu      float64
	PageLogSigma   float64
	ObjectLogMu    float64
	ObjectLogSigma float64
	TailProb       float64
	TailAlpha      float64
	TailScale      float64
	MinSize        int64
	MaxSize        int64

	// Connections is the number of persistent connections to generate.
	Connections int

	// PagesPerConn is the mean number of page visits per connection
	// (each visit = one single-request batch plus batches of embedded
	// objects).
	PagesPerConn float64

	// ResumeProb is the probability that a connection resumes an
	// interrupted page visit, making an embedded object its first
	// request. Real logs show this (the 15 s idle close cuts sessions
	// mid-page); it also seeds the dispatcher's mapping table with
	// object targets.
	ResumeProb float64

	// MaxBatch caps pipelined batch size (browsers bound parallelism).
	MaxBatch int
}

// blockSize is the number of connections per generation block, the unit
// of determinism: the catalog is built from the base seed, and block b of
// the connections draws from its own RNG stream seeded by (Seed, b), so a
// trace is a function of its config whatever the number of workers that
// generate the blocks. 1024 spreads the default 60k-connection workload
// over ~60 blocks (ample parallelism) and makes per-block stream setup
// noise.
const blockSize = 1024

// DefaultSynthConfig returns the calibrated default: ~60k targets, ~500 MB
// working set (about 6x one back-end's 85 MB cache, so a single node
// thrashes while a mid-sized cluster's aggregate cache holds it), mean
// response under 13 KB, and a popularity skew under which one 85 MB cache
// covers roughly half the requests — reproducing the paper's disk-bound WRR.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		Seed:           1,
		Pages:          12000,
		Objects:        28000,
		ObjectsPerPage: 6,
		ZipfAlpha:      0.78,
		PageLogMu:      8.7, // median ~6 KB
		PageLogSigma:   1.0,
		ObjectLogMu:    8.0, // median ~3 KB
		ObjectLogSigma: 1.1,
		TailProb:       0.01,
		TailAlpha:      1.3,
		TailScale:      64 << 10,
		MinSize:        96,
		MaxSize:        4 << 20,
		Connections:    60000,
		PagesPerConn:   1.3,
		ResumeProb:     0.25,
		MaxBatch:       4,
	}
}

// SmallSynthConfig returns a scaled-down configuration for tests: ~2k
// targets, a few thousand connections.
func SmallSynthConfig() SynthConfig {
	c := DefaultSynthConfig()
	c.Pages = 600
	c.Objects = 1400
	c.Connections = 4000
	return c
}

// catalogNames formats every document's name once, all into one string
// that the names slice. Document d is page d for d < pages, named
// /docs/page%05d.html, and object d-pages after that, named /img/obj%05d.
func catalogNames(pages, objects int) []core.Target {
	var b []byte
	ends := make([]int, pages+objects)
	for d := range ends {
		i, prefix, suffix := d, "/docs/page", ".html"
		if d >= pages {
			i, prefix, suffix = d-pages, "/img/obj", ""
		}
		b = append(b, prefix...)
		for w := 10000; w > 1 && i < w; w /= 10 {
			b = append(b, '0') // at least five digits
		}
		b = append(strconv.AppendInt(b, int64(i), 10), suffix...)
		ends[d] = len(b)
	}
	all := core.Target(b)
	names := make([]core.Target, len(ends))
	start := 0
	for d, end := range ends {
		names[d] = all[start:end]
		start = end
	}
	return names
}

// Synth is an instantiated generator: the document catalog plus the
// popularity and session models. Build one with NewSynth, then call
// Generate.
//
// The catalog (names, sizes, embedded-object lists, popularity tables) is
// built once from the base seed; connection generation draws from
// per-block RNG streams (see blockSize), so Generate can fan blocks out
// over worker goroutines and still produce the identical trace. Every
// request for a document carries the catalog's one string for its name.
type Synth struct {
	cfg   SynthConfig
	zipf  *simcore.Zipf // page popularity; per-block generators view it through their own streams
	names []core.Target // by document: pages, then objects
	size  []int64       // by document
	// embedded[p] lists page p's embedded objects as documents.
	embedded [][]int32
}

// embedRetries bounds the uniform redraws used when the popularity-skewed
// object draw collides with an object the page already embeds. The skewed
// head collides often (that is the point of shared logos), so a single
// fallback draw used to under-fill pages silently; a bounded retry keeps
// the mean embedded count tracking ObjectsPerPage without risking an
// unbounded loop when a page approaches the whole object population.
const embedRetries = 16

// NewSynth builds the catalog: names, deterministic sizes and per-page
// embedded object lists drawn from a skewed object popularity (shared
// objects such as logos appear on many pages).
func NewSynth(cfg SynthConfig) *Synth {
	if cfg.Pages <= 0 || cfg.Objects <= 0 || cfg.Connections < 0 {
		panic("trace: SynthConfig with non-positive population")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4
	}
	rng := simcore.NewRNG(cfg.Seed)
	s := &Synth{
		cfg:      cfg,
		zipf:     simcore.NewZipf(rng, cfg.Pages, cfg.ZipfAlpha),
		names:    catalogNames(cfg.Pages, cfg.Objects),
		size:     make([]int64, cfg.Pages+cfg.Objects),
		embedded: make([][]int32, cfg.Pages),
	}
	for d := range s.size {
		if d < cfg.Pages {
			s.size[d] = s.sample(rng, cfg.PageLogMu, cfg.PageLogSigma)
		} else {
			s.size[d] = s.sample(rng, cfg.ObjectLogMu, cfg.ObjectLogSigma)
		}
	}
	// Object popularity across pages: Zipf over object indices. The
	// lists are cut from one backing array; seenBy[o] == p+1 marks object
	// o as already on page p.
	objPop := simcore.NewZipf(rng, cfg.Objects, 0.6)
	seenBy := make([]int32, cfg.Objects)
	all := make([]int32, 0, int(float64(cfg.Pages)*cfg.ObjectsPerPage))
	for p := range s.embedded {
		k := rng.Geometric(cfg.ObjectsPerPage)
		if k > cfg.Objects {
			k = cfg.Objects
		}
		mark, from := int32(p+1), len(all)
		for n := 0; n < k; n++ {
			o := objPop.Next()
			for try := 0; seenBy[o] == mark && try < embedRetries; try++ {
				o = rng.Intn(cfg.Objects) // fall back to uniform on repeat
			}
			if seenBy[o] == mark {
				break // population effectively exhausted for this page
			}
			seenBy[o] = mark
			all = append(all, int32(cfg.Pages+o))
		}
		s.embedded[p] = all[from:len(all):len(all)]
	}
	return s
}

func (s *Synth) sample(rng *simcore.RNG, mu, sigma float64) int64 {
	var v float64
	if rng.Float64() < s.cfg.TailProb {
		v = rng.Pareto(s.cfg.TailScale, s.cfg.TailAlpha)
	} else {
		v = rng.LogNormal(mu, sigma)
	}
	sz := int64(v)
	if sz < s.cfg.MinSize {
		sz = s.cfg.MinSize
	}
	if sz > s.cfg.MaxSize {
		sz = s.cfg.MaxSize
	}
	return sz
}

// Sizes returns the full catalog (target → size) without generating traffic.
func (s *Synth) Sizes() map[core.Target]int64 {
	m := make(map[core.Target]int64, len(s.names))
	for d, name := range s.names {
		m[name] = s.size[d]
	}
	return m
}

// Generated requests and batch lists are cut from per-block slabs of these
// many entries (more when one connection needs more), each slice capped at
// its length so that an append to one cannot overwrite the next.
const (
	slabRequests = 4096
	slabBatches  = 1024
)

// blockGen is one block's generation context: an independent RNG stream,
// a per-stream view of the shared page-popularity table, and the slabs its
// connections are cut from.
type blockGen struct {
	s    *Synth
	rng  *simcore.RNG
	zipf *simcore.Zipf

	reqs    []core.Request
	batches []core.Batch
	conn    []core.Batch // the connection being generated
}

// blockGen starts block b's context. Block b draws from stream b+1:
// stream 0 is left unused, so that every trace stays as it was.
func (s *Synth) blockGen(block int) *blockGen {
	rng := simcore.NewRNGStream(s.cfg.Seed, uint64(block)+1)
	return &blockGen{s: s, rng: rng, zipf: s.zipf.With(rng)}
}

// genBlock fills conns[block*blockSize : ...] from the block's own stream.
func (s *Synth) genBlock(block int, conns []core.Connection) {
	g := s.blockGen(block)
	lo := block * blockSize
	hi := lo + blockSize
	if hi > len(conns) {
		hi = len(conns)
	}
	for i := lo; i < hi; i++ {
		conns[i] = g.genConnection()
	}
}

// generateConns produces the connection sequence: blocks are generated
// independently (in parallel when workers allows) and spliced in block
// order, so the result is deterministic for a config regardless of worker
// count. workers < 1 means GOMAXPROCS.
func (s *Synth) generateConns(workers int) []core.Connection {
	n := s.cfg.Connections
	if n == 0 {
		return nil
	}
	conns := make([]core.Connection, n)
	blocks := (n + blockSize - 1) / blockSize
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		for b := 0; b < blocks; b++ {
			s.genBlock(b, conns)
		}
		return conns
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1) - 1)
				if b >= blocks {
					return
				}
				s.genBlock(b, conns)
			}
		}()
	}
	wg.Wait()
	return conns
}

// Generate produces the structured P-HTTP trace directly, with every
// request's target interned. Blocks are generated across GOMAXPROCS
// workers; the output is identical to GenerateParallel(1).
func (s *Synth) Generate() *Trace {
	return s.GenerateParallel(0)
}

// GenerateParallel is Generate with an explicit worker count (1 forces
// serial generation, 0 means GOMAXPROCS). The trace is byte-identical for
// every worker count: determinism comes from the per-block RNG streams,
// not from scheduling.
func (s *Synth) GenerateParallel(workers int) *Trace {
	return s.assemble(s.generateConns(workers))
}

// assemble wraps generated connections as a Trace. Until here a generated
// request's ID is its document plus one; assemble numbers the documents in
// the order they first appear in the trace — the IDs EnsureIDs would
// assign — and fills the sizes table and the interner once per distinct
// document, without hashing a request.
func (s *Synth) assemble(conns []core.Connection) *Trace {
	ids := make([]core.TargetID, len(s.names)) // by document
	var docs []int                             // by ID-1
	for _, c := range conns {
		for _, b := range c.Batches {
			for i := range b {
				d := int(b[i].ID - 1)
				if ids[d] == core.NoTarget {
					docs = append(docs, d)
					ids[d] = core.TargetID(len(docs))
				}
				b[i].ID = ids[d]
			}
		}
	}
	names := make([]core.Target, len(docs))
	sizes := make(map[core.Target]int64, len(docs))
	for i, d := range docs {
		names[i] = s.names[d]
		sizes[s.names[d]] = s.size[d]
	}
	return &Trace{Conns: conns, Sizes: sizes, Interner: core.NewInternerOf(names)}
}

// genConnection generates one persistent connection: optionally the resumed
// tail of an interrupted page visit (object requests only), then a sequence
// of page visits, each a single-request batch (the page) followed by
// pipelined batches of its embedded objects.
func (g *blockGen) genConnection() core.Connection {
	s := g.s
	g.conn = g.conn[:0]
	if g.rng.Float64() < s.cfg.ResumeProb {
		p := g.zipf.Next()
		if objs := s.embedded[p]; len(objs) > 0 {
			// Resume partway through the page's objects. The first
			// request of a connection always stands alone (the client
			// cannot pipeline before its first round trip).
			from := g.rng.Intn(len(objs))
			g.fill(&g.batch(1)[0], objs[from])
			g.objectBatches(objs[from+1:])
		}
	}
	visits := g.rng.Geometric(s.cfg.PagesPerConn)
	for v := 0; v < visits; v++ {
		p := g.zipf.Next()
		g.fill(&g.batch(1)[0], int32(p))
		g.objectBatches(s.embedded[p])
	}
	if len(g.conn) == 0 {
		return core.Connection{}
	}
	n := len(g.conn)
	if len(g.batches) < n {
		g.batches = make([]core.Batch, max(slabBatches, n))
	}
	bs := g.batches[:n:n]
	g.batches = g.batches[n:]
	copy(bs, g.conn)
	return core.Connection{Batches: bs}
}

// batch appends an n-request batch to the connection and returns it.
func (g *blockGen) batch(n int) core.Batch {
	if len(g.reqs) < n {
		g.reqs = make([]core.Request, max(slabRequests, n))
	}
	b := g.reqs[:n:n]
	g.reqs = g.reqs[n:]
	g.conn = append(g.conn, b)
	return b
}

// fill makes r a request for document d.
func (g *blockGen) fill(r *core.Request, d int32) {
	r.Target = g.s.names[d]
	r.ID = core.TargetID(d + 1)
	r.Size = g.s.size[d]
}

// objectBatches splits objs into pipelined batches of at most MaxBatch
// requests and appends them to the connection.
func (g *blockGen) objectBatches(objs []int32) {
	for start := 0; start < len(objs); start += g.s.cfg.MaxBatch {
		end := min(start+g.s.cfg.MaxBatch, len(objs))
		b := g.batch(end - start)
		for i, d := range objs[start:end] {
			g.fill(&b[i], d)
		}
	}
}
