package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"phttp/internal/core"
)

// The TestShardedLRU* cases check the mapping as an LRU sharded by node:
// each node's beliefs age out under that node's budget and lock alone.

func TestShardedLRUBasics(t *testing.T) {
	m := NewMapping(2, 100)
	if m.IsMapped(idA, 0) {
		t.Error("empty mapping maps idA")
	}
	m.Map(idA, 40, 0)
	if !m.IsMapped(idA, 0) || m.IsMapped(idA, 1) {
		t.Error("Map did not land on node 0 alone")
	}
	if m.MappedBytes(0) != 40 || m.MappedTargets(0) != 1 || m.MappedBytes(1) != 0 {
		t.Errorf("node 0 holds %d B in %d targets, node 1 %d B; want 40/1, 0",
			m.MappedBytes(0), m.MappedTargets(0), m.MappedBytes(1))
	}
	m.Map(idA, 60, 0) // resize in place
	if m.MappedBytes(0) != 60 || m.MappedTargets(0) != 1 {
		t.Errorf("Bytes=%d Len=%d after resize, want 60/1", m.MappedBytes(0), m.MappedTargets(0))
	}
	m.Unmap(idA, 0)
	m.Unmap(idA, 0)
	if m.MappedBytes(0) != 0 || m.MappedTargets(0) != 0 {
		t.Error("residue after Unmap")
	}
}

func TestShardedLRUEvictsGlobalLRU(t *testing.T) {
	m := NewMapping(2, 100)
	m.Map(idB, 40, 1)
	m.Map(idA, 40, 0)
	m.Map(idB, 40, 0)
	m.Touch(idA, 0) // idB is now node 0's least recent
	m.Touch(idB, 1) // and node 1's most recent, which must not save it on 0
	m.Map(idC, 40, 0)
	if m.IsMapped(idB, 0) {
		t.Error("idB survived on node 0, eviction is not LRU over the node")
	}
	if !m.IsMapped(idA, 0) || !m.IsMapped(idC, 0) || !m.IsMapped(idB, 1) {
		t.Error("wrong survivors after eviction")
	}
}

func TestShardedLRUOversizeNotCached(t *testing.T) {
	m := NewMapping(1, 100)
	m.Map(idA, 40, 0)
	m.Map(idB, 200, 0)
	if m.IsMapped(idB, 0) {
		t.Error("oversize target mapped")
	}
	if !m.IsMapped(idA, 0) {
		t.Error("oversize insert disturbed existing entries")
	}
}

func TestShardedLRUIDsOrder(t *testing.T) {
	m := NewMapping(1, 1000)
	m.Map(idA, 1, 0)
	m.Map(idB, 1, 0)
	m.Map(idC, 1, 0)
	m.Touch(idA, 0)
	want := []core.TargetID{idA, idC, idB}
	if got := m.perNode[0].lru.IDs(); !slices.Equal(got, want) {
		t.Errorf("node 0 order %v, want %v", got, want)
	}
}

// A target a full capped interner turned away (NoTarget) is never mapped:
// Map, ApplySynced, Touch and Unmap leave every node as it was, and the
// readers see an empty node set for it.
func TestMappingIgnoresNoTarget(t *testing.T) {
	m := NewMapping(2, 100)
	var observed int
	m.SetWriteObserver(func(core.TargetID, int64, core.NodeID) { observed++ })
	m.Map(1, 10, 0)
	for n := core.NodeID(0); n < 2; n++ {
		m.Map(core.NoTarget, 10, n)
		m.ApplySynced(core.NoTarget, 10, n)
		m.Touch(core.NoTarget, n)
		m.Unmap(core.NoTarget, n)
		if m.IsMapped(core.NoTarget, n) {
			t.Errorf("NoTarget mapped at node %d", n)
		}
	}
	if got := m.NodesFor(core.NoTarget); len(got) != 0 {
		t.Errorf("NodesFor(NoTarget) = %v, want none", got)
	}
	if m.MappedTargets(0) != 1 || m.MappedTargets(1) != 0 || m.MappedBytes(0) != 10 || observed != 1 {
		t.Errorf("mapped %d/%d targets, %d B at node 0, %d observed writes; want 1/0, 10, 1",
			m.MappedTargets(0), m.MappedTargets(1), m.MappedBytes(0), observed)
	}
}

// Property: on 1–4 nodes, and on 65–70 nodes (node masks of more than one
// word), every node of a Mapping behaves exactly like its own reference
// model for any mix of Map, ApplySynced, Touch, Unmap and DropNode — same
// membership, bytes, count and recency order — and IsMapped and
// AppendNodesFor answer exactly from the models' membership.
func TestMappingMatchesModel(t *testing.T) {
	const capacity = 1000
	f := func(ops []uint16, nodeBits uint8) bool {
		nodes := int(nodeBits%4) + 1
		if nodeBits&0x80 != 0 {
			nodes = int(nodeBits%6) + 65
		}
		m := NewMapping(nodes, capacity)
		ref := make([]modelLRU, nodes)
		for i := range ref {
			ref[i].capacity = capacity
		}
		var buf []core.NodeID
		for _, op := range ops {
			id := core.TargetID(op%50) + 1
			size := int64(op%300) + 1
			n := core.NodeID(int(op>>8) % nodes)
			switch op % 6 {
			case 0:
				m.Map(id, size, n)
				ref[n].insert(id, size)
			case 1:
				m.ApplySynced(id, size, n)
				ref[n].insert(id, size)
			case 2:
				m.Touch(id, n)
				ref[n].touch(id)
			case 3:
				m.Unmap(id, n)
				ref[n].remove(id)
			case 4:
				var want []core.NodeID
				for i := range ref {
					if slices.ContainsFunc(ref[i].entries, func(e modelEntry) bool { return e.id == id }) {
						want = append(want, core.NodeID(i))
					}
				}
				if buf = m.AppendNodesFor(buf[:0], id); !slices.Equal(buf, want) {
					return false
				}
			case 5:
				if op%64 == 5 {
					m.DropNode(n)
					ref[n].entries = nil
				}
			}
			if m.MappedBytes(n) != ref[n].bytes() || m.MappedTargets(n) != len(ref[n].entries) {
				return false
			}
			if m.IsMapped(id, n) != slices.ContainsFunc(ref[n].entries, func(e modelEntry) bool { return e.id == id }) {
				return false
			}
		}
		for i := range ref {
			if !ref[i].matches(m.perNode[i].lru) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

// Concurrent hammer: goroutines mix every Mapping operation on four nodes.
// After they finish, each node's model is internally consistent — bytes
// within budget and equal to the sum of its entries — every target's node
// bitset equals the membership of the nodes' LRUs, and the write observer
// saw every Map and no ApplySynced.
func TestMappingConcurrentInvariants(t *testing.T) {
	const (
		goroutines = 8
		opsPer     = 5000
		nodes      = 4
		capacity   = 1 << 20
	)
	m := NewMapping(nodes, capacity)
	var observed, maps atomic.Int64
	m.SetWriteObserver(func(core.TargetID, int64, core.NodeID) { observed.Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf []core.NodeID
			for i := 0; i < opsPer; i++ {
				id := core.TargetID(rng.Intn(2000)) + 1
				n := core.NodeID(rng.Intn(nodes))
				switch rng.Intn(6) {
				case 0:
					m.Map(id, int64(rng.Intn(4096))+1, n)
					maps.Add(1)
				case 1:
					m.ApplySynced(id, int64(rng.Intn(4096))+1, n)
				case 2:
					m.Touch(id, n)
				case 3:
					if rng.Intn(8) == 0 {
						m.Unmap(id, n)
					} else {
						m.IsMapped(id, n)
					}
				case 4:
					buf = m.AppendNodesFor(buf[:0], id)
				case 5:
					if rng.Intn(500) == 0 {
						m.DropNode(n)
					}
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()

	for n := range m.perNode {
		if err := checkInvariants(m.perNode[n].lru); err != nil {
			t.Errorf("node %d: %v", n, err)
		}
		if got := m.MappedBytes(core.NodeID(n)); got > capacity {
			t.Errorf("node %d maps %d B, over capacity %d", n, got, capacity)
		}
	}
	for id := core.TargetID(1); id <= 2000; id++ {
		for n := range m.perNode {
			if m.IsMapped(id, core.NodeID(n)) != m.perNode[n].lru.Contains(id) {
				t.Fatalf("target %d: node %d's bit disagrees with its LRU", id, n)
			}
		}
	}
	if observed.Load() != maps.Load() {
		t.Errorf("observer saw %d writes, %d Maps were made", observed.Load(), maps.Load())
	}
}

// Churn through a capped interner: a stream over more targets than the cap
// maps the interned ones and turns the rest away as NoTarget, against
// small per-node budgets with nodes dropped now and then. Afterwards every
// target's node bitset equals the membership of the nodes' LRUs, the set
// bits add up to the mapped beliefs, and NoTarget's bitset is empty.
func TestMappingMasksUnderChurn(t *testing.T) {
	const nodes = 3
	in := core.NewCappedInterner(64)
	m := NewMapping(nodes, 16<<10)
	for i := 0; i < 4096; i++ {
		n := core.NodeID(i % nodes)
		id := in.Intern(core.Target(fmt.Sprintf("/t%d", i%300)))
		m.Map(id, 1<<10, n) // 16 resident entries per node at steady state
		if i%7 == 0 {
			m.Unmap(id, n)
		}
		if i%1000 == 999 {
			m.DropNode(n)
		}
	}
	bits, mapped := 0, 0
	for id := core.TargetID(1); id <= in.HighWater(); id++ {
		for n := range m.perNode {
			if m.IsMapped(id, core.NodeID(n)) != m.perNode[n].lru.Contains(id) {
				t.Fatalf("target %d: node %d's bit disagrees with its LRU", id, n)
			}
		}
		bits += len(m.NodesFor(id))
	}
	for n := 0; n < nodes; n++ {
		mapped += m.MappedTargets(core.NodeID(n))
		if m.IsMapped(core.NoTarget, core.NodeID(n)) {
			t.Errorf("NoTarget's bit set at node %d", n)
		}
	}
	if bits != mapped {
		t.Errorf("%d mask bits set vs %d mapped beliefs", bits, mapped)
	}
	if got := in.Len(); got != 64 {
		t.Errorf("interner holds %d targets, want its cap 64", got)
	}
}

// A warm, full mapping allocates nothing per request: a Map that evicts, a
// Touch, an IsMapped, and an AppendNodesFor into a reused buffer.
func TestMappingSteadyStateZeroAllocs(t *testing.T) {
	const nodes = 4
	m := NewMapping(nodes, 100)
	// Each node cycles through 12–13 targets with room for 10, so every
	// Map below misses and evicts.
	for id := core.TargetID(1); id <= 50; id++ {
		m.Map(id, 10, core.NodeID(id)%nodes)
	}
	buf := make([]core.NodeID, 0, nodes)
	next := core.TargetID(1)
	avg := testing.AllocsPerRun(2000, func() {
		n := core.NodeID(next) % nodes
		m.Map(next, 10, n)
		m.Touch(next, n)
		if !m.IsMapped(next, n) {
			t.Fatal("a target just mapped reads unmapped")
		}
		buf = m.AppendNodesFor(buf[:0], next)
		next = next%50 + 1
	})
	if avg != 0 {
		t.Errorf("steady-state Map/Touch/IsMapped/AppendNodesFor allocates %.2f allocs/op, want 0", avg)
	}
}

// The read path takes no lock: with every node's mutex held by this
// goroutine, IsMapped and AppendNodesFor still answer from another one, on
// a mapping wide enough that the target's mask spans two words.
func TestMappingReadsTakeNoLock(t *testing.T) {
	m := NewMapping(70, 100)
	m.Map(idA, 10, 3)
	m.Map(idA, 10, 66)
	for i := range m.perNode {
		m.perNode[i].mu.Lock()
		defer m.perNode[i].mu.Unlock()
	}
	type answer struct {
		on3, on4, on66 bool
		nodes          []core.NodeID
	}
	done := make(chan answer, 1)
	go func() {
		done <- answer{m.IsMapped(idA, 3), m.IsMapped(idA, 4), m.IsMapped(idA, 66), m.AppendNodesFor(nil, idA)}
	}()
	select {
	case a := <-done:
		if !a.on3 || a.on4 || !a.on66 || !slices.Equal(a.nodes, []core.NodeID{3, 66}) {
			t.Errorf("reads under held locks: IsMapped 3/4/66 = %v/%v/%v, AppendNodesFor = %v; want true/false/true, [3 66]",
				a.on3, a.on4, a.on66, a.nodes)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("IsMapped/AppendNodesFor blocked on a node's mutex")
	}
}
