package policy

import (
	"fmt"
	"math"
	"testing"

	"phttp/internal/core"
)

func internedReqs(targets int) []core.Request {
	in := core.NewInterner()
	out := make([]core.Request, targets)
	for i := range out {
		t := core.Target(fmt.Sprintf("/t%04d", i))
		out[i] = core.Request{Target: t, ID: in.Intern(t), Size: 4 << 10}
	}
	return out
}

// TestP2CDeterministicPerTarget pins the placement contract: with equal
// loads, a target always resolves to the same node (its candidate pair is a
// pure function of ID and seed), and the same seed reproduces the same
// placement across policy instances.
func TestP2CDeterministicPerTarget(t *testing.T) {
	reqs := internedReqs(64)
	p1 := NewP2C(8, 42)
	p2 := NewP2C(8, 42)
	for _, r := range reqs {
		c1, c2 := core.NewConnState(1), core.NewConnState(1)
		n1 := p1.ConnOpen(c1, r)
		n2 := p2.ConnOpen(c2, r)
		if n1 != n2 {
			t.Fatalf("target %s: instance placement differs (%v vs %v)", r.Target, n1, n2)
		}
		p1.ConnClose(c1)
		p2.ConnClose(c2)
	}
}

// TestP2CCandidatesDistinct verifies the two choices are always distinct
// nodes when the cluster has more than one.
func TestP2CCandidatesDistinct(t *testing.T) {
	for _, nodes := range []int{2, 3, 7, 32} {
		p := NewP2C(nodes, 1)
		for _, r := range internedReqs(512) {
			a, b := p.candidates(uint64(r.ID))
			if a == b {
				t.Fatalf("n=%d target %v: candidates collide on %v", nodes, r.ID, a)
			}
			if a < 0 || int(a) >= nodes || b < 0 || int(b) >= nodes {
				t.Fatalf("n=%d: candidate out of range (%v, %v)", nodes, a, b)
			}
		}
	}
}

// TestP2CBalancesBetterThanSingleHash drives a skewed workload and checks
// the classic result: choosing the less loaded of two candidates keeps the
// maximum node load far below single-hash placement.
func TestP2CBalancesBetterThanSingleHash(t *testing.T) {
	const nodes, conns = 8, 4000
	reqs := internedReqs(200)
	p := NewP2C(nodes, 1)
	single := make([]int, nodes) // what hashing to the first candidate alone would do
	var open []*core.ConnState
	for i := 0; i < conns; i++ {
		r := reqs[i%len(reqs)]
		c := core.NewConnState(core.ConnID(i))
		p.ConnOpen(c, r)
		open = append(open, c)
		a, _ := p.candidates(uint64(r.ID))
		single[a]++
	}
	maxP2C, maxSingle := 0, 0
	for n := 0; n < nodes; n++ {
		if c := p.Loads().Conns(core.NodeID(n)); c > maxP2C {
			maxP2C = c
		}
		if single[n] > maxSingle {
			maxSingle = single[n]
		}
	}
	if maxP2C > maxSingle {
		t.Errorf("p2c max load %d worse than single-hash %d", maxP2C, maxSingle)
	}
	// The mean is conns/nodes; two choices should stay within 2x of it on
	// this wide-margin workload.
	if mean := conns / nodes; maxP2C > 2*mean {
		t.Errorf("p2c max load %d exceeds 2x mean %d", maxP2C, mean)
	}
	for _, c := range open {
		p.ConnClose(c)
	}
	if got := p.Loads().Total(); math.Abs(got) > 1e-9 {
		t.Errorf("load leaked after closes: %v", got)
	}
}

// TestBoundedCHBoundInvariant hammers a single hot target and asserts the
// defining property: no node ever holds more than ceil(c × (total+1)/n)
// connections, however skewed the workload.
func TestBoundedCHBoundInvariant(t *testing.T) {
	const nodes = 6
	bound := 1.25
	b := NewBoundedCH(nodes, 128, bound, 1)
	hot := internedReqs(1)[0]
	var open []*core.ConnState
	for i := 0; i < 900; i++ {
		c := core.NewConnState(core.ConnID(i))
		b.ConnOpen(c, hot)
		open = append(open, c)
		total := 0
		for n := 0; n < nodes; n++ {
			total += b.Loads().Conns(core.NodeID(n))
		}
		limit := int(math.Ceil(bound * float64(total) / nodes))
		for n := 0; n < nodes; n++ {
			if got := b.Loads().Conns(core.NodeID(n)); got > limit {
				t.Fatalf("after %d opens: node %d holds %d conns, bound %d", total, n, got, limit)
			}
		}
	}
	for _, c := range open {
		b.ConnClose(c)
	}
}

// TestBoundedCHStickyPlacement verifies consistent-hashing locality: under
// light load every distinct target maps to a stable node, identical across
// instances with the same seed.
func TestBoundedCHStickyPlacement(t *testing.T) {
	reqs := internedReqs(128)
	b1 := NewBoundedCH(8, 128, 1.25, 9)
	b2 := NewBoundedCH(8, 128, 1.25, 9)
	for _, r := range reqs {
		c1, c2 := core.NewConnState(1), core.NewConnState(2)
		n1 := b1.ConnOpen(c1, r)
		n2 := b2.ConnOpen(c2, r)
		if n1 != n2 {
			t.Fatalf("target %v: placement differs across instances (%v vs %v)", r.ID, n1, n2)
		}
		b1.ConnClose(c1)
		b2.ConnClose(c2)
		// Re-open on the (now idle) first instance: same node again.
		c3 := core.NewConnState(3)
		if n3 := b1.ConnOpen(c3, r); n3 != n1 {
			t.Fatalf("target %v: placement not sticky (%v then %v)", r.ID, n1, n3)
		}
		b1.ConnClose(c3)
	}
}

// TestHashPolicyInterface covers the trivial core.Policy surface and the
// constructor clamps.
func TestHashPolicyInterface(t *testing.T) {
	p := NewP2C(1, 1)
	b := NewBoundedCH(2, 0, 0.5, 1) // clamped to replicas=1, bound=1
	if p.Name() != "P2C" || b.Name() != "boundedCH" {
		t.Errorf("names %q, %q", p.Name(), b.Name())
	}
	c := core.NewConnState(1)
	if n := p.ConnOpen(c, internedReqs(1)[0]); n != 0 {
		t.Errorf("single-node p2c assigned %v", n)
	}
	p.BatchDone(c)
	p.ReportDiskQueue(0, 3)
	p.ConnClose(c)
	p.ConnClose(c) // second close is a no-op
	c2 := core.NewConnState(2)
	b.ConnOpen(c2, internedReqs(1)[0])
	b.BatchDone(c2)
	b.ReportDiskQueue(0, 3)
	b.ConnClose(c2)
	if p.Loads().Total() != 0 || b.Loads().Total() != 0 {
		t.Error("load leaked")
	}
}

// TestBoundedCHSpreadsTargets checks the ring actually distributes: 512
// distinct targets under no load pressure should touch every node of a
// small cluster.
func TestBoundedCHSpreadsTargets(t *testing.T) {
	const nodes = 4
	b := NewBoundedCH(nodes, 128, 1.25, 1)
	seen := make(map[core.NodeID]int)
	for _, r := range internedReqs(512) {
		c := core.NewConnState(1)
		seen[b.ConnOpen(c, r)]++
		b.ConnClose(c)
	}
	for n := 0; n < nodes; n++ {
		if seen[core.NodeID(n)] == 0 {
			t.Errorf("node %d never chosen across 512 targets", n)
		}
	}
}

// Connections whose first target a full capped interner turned away
// (NoTarget) are placed by their connection ID: 1 000 of them, each closed
// before the next opens so load never breaks the tie, land on every node
// under both hash-keyed policies instead of all on one key's placement.
func TestHashPoliciesSpreadOverflowConnections(t *testing.T) {
	const nodes, conns = 4, 1000
	overflow := core.Request{Target: "/past-the-cap", Size: 4 << 10}
	for name, p := range map[string]core.Policy{
		"p2c":       NewP2C(nodes, 1),
		"boundedch": NewBoundedCH(nodes, 16, 1.25, 1),
	} {
		var per [nodes]int
		for i := 0; i < conns; i++ {
			c := core.NewConnState(core.ConnID(i + 1))
			per[p.ConnOpen(c, overflow)]++
			p.ConnClose(c)
		}
		for n, got := range per {
			if got == 0 {
				t.Errorf("%s: no overflow connection on node %d (per node %v)", name, n, per)
			}
		}
	}
}
