package simcore

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-based) used by the workload generator and simulator so runs
// are reproducible from a seed without depending on math/rand's global
// state or version-dependent stream.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped to a fixed
// nonzero constant so the stream is never degenerate).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// NewRNGStream returns an independent child generator for (seed, stream):
// SplitMix-style child seeding where the child's initial state is the
// splitmix64 finalizer applied to the parent seed offset by the stream
// index times the golden-gamma increment. Distinct streams of one seed are
// decorrelated from each other and from NewRNG(seed) itself, and the
// mapping is a pure function of (seed, stream) — parallel workers drawing
// from per-block streams reproduce a serial run exactly, whichever worker
// generates which block.
func NewRNGStream(seed, stream uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	z := seed + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return &RNG{state: z}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simcore: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed sample with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed sample (Box-Muller).
func (r *RNG) Normal(mu, sigma float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mu + sigma*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Pareto returns a Pareto-distributed sample with scale xm and shape alpha.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Geometric returns a geometric sample in {1, 2, ...} with the given mean
// (mean must be >= 1).
func (r *RNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for r.Float64() > p {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^alpha, using an inverted-CDF table built by NewZipf. A draw
// is the first rank whose cumulative probability reaches a uniform u; a
// guide table narrows the search for it to the ranks between two
// consecutive 1/n steps.
type Zipf struct {
	cdf []float64
	// guide[j] is the first rank whose cdf reaches j/n.
	guide []int32
	rng   *RNG
}

// NewZipf builds a Zipf sampler over n ranks with exponent alpha.
func NewZipf(rng *RNG, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("simcore: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	guide := make([]int32, n)
	i := 0
	for j := range guide {
		for cdf[i] < float64(j)/float64(n) {
			i++
		}
		guide[j] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide, rng: rng}
}

// With returns a sampler sharing z's inverted-CDF table but drawing from
// r. Building the CDF is O(n); With is O(1), so per-block generators can
// reuse one catalog-wide popularity table with their own RNG streams.
func (z *Zipf) With(r *RNG) *Zipf {
	return &Zipf{cdf: z.cdf, guide: z.guide, rng: r}
}

// Next returns the next rank sample in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	n := len(z.cdf)
	j := min(int(u*float64(n)), n-1)
	lo, hi := int(z.guide[j]), n-1
	if j+1 < n {
		hi = int(z.guide[j+1])
	}
	// Rounding in u*n can put u outside step j; the search then widens
	// to the whole table, so the draw is always the first rank whose cdf
	// reaches u.
	if lo > 0 && z.cdf[lo-1] >= u {
		lo = 0
	}
	if z.cdf[hi] < u {
		hi = n - 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
