package policy

import (
	"sync/atomic"

	"phttp/internal/core"
)

// memberSet is the shared membership-eligibility state embedded by every
// policy: one flag per node slot saying whether new work may be placed
// there. The universe is fixed at construction (like every per-node
// array in this package); membership transitions toggle flags, they
// never resize anything.
//
// The design goal is zero cost — and bit-identical decisions — while
// the whole cluster is Up: outCount is checked first with one atomic
// load, and only when some node is Draining/Down do the selection loops
// pay the per-candidate flag check. Flags are atomics because the
// prototype delivers transitions concurrently with dispatch; the
// simulator's single-threaded event loop gets sequential consistency
// for free.
//
// Eligibility is deliberately binary: Draining and Down both mean "no
// new placements". What differs between them is handled by the policies
// themselves (NodeDown may additionally invalidate mapping state;
// NodeDraining never does).
type memberSet struct {
	state    []atomic.Bool // true = ineligible
	outCount atomic.Int32
}

func (m *memberSet) init(n int) { m.state = make([]atomic.Bool, n) }

// setEligible flips node n's flag, keeping outCount exact under
// concurrent calls.
func (m *memberSet) setEligible(n core.NodeID, ok bool) {
	if m.state[n].CompareAndSwap(ok, !ok) {
		if ok {
			m.outCount.Add(-1)
		} else {
			m.outCount.Add(1)
		}
	}
}

// allUp reports whether every node is eligible (the fast path).
func (m *memberSet) allUp() bool { return m.outCount.Load() == 0 }

// eligible reports whether new work may be placed on node n.
func (m *memberSet) eligible(n core.NodeID) bool { return !m.state[n].Load() }

// active returns m when filtering is needed, nil when every node is
// eligible — selection helpers take the result so the all-up path never
// checks per-candidate flags.
func (m *memberSet) active() *memberSet {
	if m.allUp() {
		return nil
	}
	return m
}

// NodeUp, NodeDown and NodeDraining implement core.MembershipPolicy for
// a policy that needs nothing beyond eligibility (WRR embeds memberSet
// anonymously and gets them promoted). The LARD family defines its own,
// because its NodeDown also drops the dead node's mapping entries.
func (m *memberSet) NodeUp(n core.NodeID)       { m.setEligible(n, true) }
func (m *memberSet) NodeDown(n core.NodeID)     { m.setEligible(n, false) }
func (m *memberSet) NodeDraining(n core.NodeID) { m.setEligible(n, false) }

// leastEligible returns the least-loaded eligible node from candidates
// (ties to the first seen), or core.NoNode if none is eligible. A nil
// receiver means no filtering.
func (m *memberSet) leastEligible(loads *core.LoadTracker, candidates []core.NodeID) core.NodeID {
	least := core.NoNode
	for _, n := range candidates {
		if m != nil && !m.eligible(n) {
			continue
		}
		if least == core.NoNode || loads.Load(n) < loads.Load(least) {
			least = n
		}
	}
	return least
}
