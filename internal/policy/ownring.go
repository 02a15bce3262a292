package policy

import (
	"sort"

	"phttp/internal/core"
)

// OwnerRing partitions the target space across the front-ends of a
// scale-out tier: a splitmix64 consistent-hashing ring whose members are
// the front-end indices.
// dstate's sharded store asks it which front-end owns a target's mapping
// shard; because the construction is consistent hashing, growing the tier
// by one front-end moves only ~1/N of the target space.
//
// The ring is immutable after construction, so concurrent owner lookups
// need no lock.
type OwnerRing struct {
	ring      []ringPoint // sorted by hash; node field holds the FE index
	seed      uint64
	frontends int
}

// OwnerRingReplicas is the default number of virtual points per front-end:
// enough that the largest shard stays within a few percent of 1/N for the
// small tiers (2–16 front-ends) this repo targets.
const OwnerRingReplicas = 64

// ownerQueryTag domain-separates target lookups from ring-point
// placement. Both are splitmix64 over seed-XORed small integers; without
// the tag, a target whose id is below the replica count hashes to exactly
// front-end 0's virtual point #id (query input id^seed == point input
// seed^(0<<32)^r at r == id), so FE0 would own every small target ID —
// and interner IDs are small sequential integers. The tag's high bits can
// never appear in a point input (fe<<32 ^ r stays below 2^40 for real
// tiers), so the two input spaces are disjoint.
const ownerQueryTag uint64 = 0xd1b54a32d192ed03

// NewOwnerRing returns a shard-ownership ring over the given number of
// front-ends. replicas <= 0 selects OwnerRingReplicas.
func NewOwnerRing(frontends, replicas int, seed uint64) *OwnerRing {
	if frontends < 1 {
		frontends = 1
	}
	if replicas <= 0 {
		replicas = OwnerRingReplicas
	}
	o := &OwnerRing{
		ring:      make([]ringPoint, 0, frontends*replicas),
		seed:      seed,
		frontends: frontends,
	}
	for fe := 0; fe < frontends; fe++ {
		for r := 0; r < replicas; r++ {
			h := splitmix64(seed ^ uint64(fe)<<32 ^ uint64(r))
			o.ring = append(o.ring, ringPoint{hash: h, node: core.NodeID(fe)})
		}
	}
	sort.Slice(o.ring, func(i, j int) bool {
		if o.ring[i].hash != o.ring[j].hash {
			return o.ring[i].hash < o.ring[j].hash
		}
		return o.ring[i].node < o.ring[j].node
	})
	return o
}

type ringPoint struct {
	hash uint64
	node core.NodeID
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// mixer (Steele et al., "Fast splittable pseudorandom number generators").
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Frontends returns the number of front-ends the ring partitions over.
func (o *OwnerRing) Frontends() int { return o.frontends }

// Owner returns the index of the front-end owning target id's shard: the
// first ring point clockwise from the target's hash position (ownership
// is about state placement, not load, so every point accepts).
//
//phttp:hotpath
func (o *OwnerRing) Owner(id core.TargetID) int {
	if o.frontends == 1 {
		return 0
	}
	h := splitmix64(uint64(uint32(id)) ^ o.seed ^ ownerQueryTag)
	// Manual binary search (sort.Search's closure would allocate its
	// environment on this annotated hot path).
	lo, hi := 0, len(o.ring)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.ring[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(o.ring) {
		lo = 0
	}
	return int(o.ring[lo].node)
}
