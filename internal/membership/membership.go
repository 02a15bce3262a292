// Package membership tracks per-back-end liveness for the front-end: a
// small state machine (Joining → Up → Draining/Suspect → Down) fed by
// the control links the front-end already holds open to every back-end.
//
// The package is deliberately passive: it owns no goroutines, no timers
// and no clock. Every transition is an explicit call carrying the
// caller's notion of "now", so the prototype can drive it from a
// wall-clock ticker while tests (and the simulator, which models churn
// as scheduled events directly on the dispatch engine) drive it with a
// synthetic clock and get bit-reproducible behavior.
//
// Failure detection is two-staged, as in ISSUE 7:
//
//   - a control-link read error or a missed heartbeat window marks a
//     node Suspect (it keeps its dispatch state; traffic continues),
//   - remaining Suspect for the confirm window marks it Down (the
//     dispatch engine is told, policies shrink their candidate sets,
//     in-flight work is re-dispatched).
//
// The node universe is fixed at construction — slots, not servers.
// AddBackend-style elasticity reuses a slot: a vacant slot sits Down
// until a dial succeeds and MarkUp revives it.
package membership

import (
	"fmt"
	"sync"
	"time"

	"phttp/internal/core"
)

// State is a node's position in the membership state machine.
type State int32

const (
	// Joining: provisioned but not yet confirmed reachable (initial
	// dial in progress or retrying).
	Joining State = iota
	// Up: healthy; eligible for new work.
	Up
	// Draining: leaving gracefully; no new work, existing work
	// completes.
	Draining
	// Suspect: missed heartbeats or errored control link; still
	// dispatched to until the confirm window expires.
	Suspect
	// Down: confirmed dead (or never reachable); policies exclude it
	// and its in-flight work is re-dispatched.
	Down
)

func (s State) String() string {
	switch s {
	case Joining:
		return "joining"
	case Up:
		return "up"
	case Draining:
		return "draining"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Config holds the failure-detection timing parameters (DESIGN.md §14).
type Config struct {
	// HeartbeatTimeout: a node whose last heartbeat is older than this
	// at Tick time becomes Suspect. The prototype's heartbeat is the
	// DISKQ report every back-end already sends on its control link
	// (every cluster.DiskReportEvery), so no new protocol traffic is
	// needed.
	HeartbeatTimeout time.Duration
	// ConfirmWindow: a node continuously Suspect for this long becomes
	// Down.
	ConfirmWindow time.Duration
}

// Defaults: the back-end heartbeats every 50ms (DiskReportEvery), so a
// second of silence is ~20 missed reports.
const (
	DefaultHeartbeatTimeout = 1 * time.Second
	DefaultConfirmWindow    = 1 * time.Second
)

func (c Config) withDefaults() Config {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if c.ConfirmWindow <= 0 {
		c.ConfirmWindow = DefaultConfirmWindow
	}
	return c
}

// Listener observes state transitions. Listeners run synchronously under
// the table lock, in registration order, exactly once per transition —
// they must be fast and must not call back into the Table.
type Listener func(n core.NodeID, from, to State)

// Table is the membership table for a fixed universe of node slots.
// All methods are safe for concurrent use.
type Table struct {
	mu        sync.Mutex
	cfg       Config
	nodes     []nodeInfo
	listeners []Listener
}

type nodeInfo struct {
	state       State
	lastSeen    time.Time
	suspectedAt time.Time
}

// New creates a table with n slots, all Joining as of now.
func New(n int, cfg Config, now time.Time) *Table {
	if n <= 0 {
		panic("membership: table needs at least one node slot")
	}
	t := &Table{cfg: cfg.withDefaults(), nodes: make([]nodeInfo, n)}
	for i := range t.nodes {
		t.nodes[i] = nodeInfo{state: Joining, lastSeen: now}
	}
	return t
}

// OnChange registers a transition listener. Register before concurrent
// use; listeners fire under the table lock.
func (t *Table) OnChange(l Listener) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.listeners = append(t.listeners, l)
}

// Nodes returns the number of slots.
func (t *Table) Nodes() int { return len(t.nodes) }

// State returns node n's current state.
func (t *Table) State(n core.NodeID) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nodes[n].state
}

// UpCount returns the number of Up nodes.
func (t *Table) UpCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := 0
	for i := range t.nodes {
		if t.nodes[i].state == Up {
			c++
		}
	}
	return c
}

// Snapshot returns a copy of all node states, indexed by NodeID.
func (t *Table) Snapshot() []State {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]State, len(t.nodes))
	for i := range t.nodes {
		out[i] = t.nodes[i].state
	}
	return out
}

// set transitions node n to state s (caller holds t.mu). No-op when the
// state is unchanged.
func (t *Table) set(n core.NodeID, s State) {
	from := t.nodes[n].state
	if from == s {
		return
	}
	t.nodes[n].state = s
	for _, l := range t.listeners {
		l(n, from, s)
	}
}

// MarkUp declares node n healthy (dial succeeded, rejoin confirmed).
// Valid from every state.
func (t *Table) MarkUp(n core.NodeID, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[n].lastSeen = now
	t.set(n, Up)
}

// MarkDown declares node n dead immediately, bypassing the confirm
// window (used for vacant slots and explicit removal).
func (t *Table) MarkDown(n core.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.set(n, Down)
}

// Drain starts a graceful leave: no new work lands on n, existing work
// completes. Down nodes stay Down.
func (t *Table) Drain(n core.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nodes[n].state == Down {
		return
	}
	t.set(n, Draining)
}

// Suspect reports a control-link failure for node n as of now. Up and
// Joining nodes become Suspect (the confirm window starts); a Draining
// node that loses its link is declared Down directly — it was leaving
// anyway, and nothing new is routed to it.
func (t *Table) Suspect(n core.NodeID, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.nodes[n].state {
	case Up, Joining:
		t.nodes[n].suspectedAt = now
		t.set(n, Suspect)
	case Draining:
		t.set(n, Down)
	}
}

// Heartbeat records liveness evidence for node n (the prototype calls
// this on every DISKQ report). A Suspect node whose link recovers is
// revived to Up; other states only refresh lastSeen.
func (t *Table) Heartbeat(n core.NodeID, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[n].lastSeen = now
	if t.nodes[n].state == Suspect {
		t.set(n, Up)
	}
}

// Tick applies the timing rules as of now: Up nodes silent past
// HeartbeatTimeout become Suspect, Suspect nodes past ConfirmWindow
// become Down. The caller owns the cadence (the prototype runs a
// wall-clock ticker; tests call it with a synthetic clock).
func (t *Table) Tick(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.nodes {
		n := core.NodeID(i)
		switch t.nodes[i].state {
		case Up:
			if now.Sub(t.nodes[i].lastSeen) > t.cfg.HeartbeatTimeout {
				t.nodes[i].suspectedAt = now
				t.set(n, Suspect)
			}
		case Suspect:
			if now.Sub(t.nodes[i].suspectedAt) > t.cfg.ConfirmWindow {
				t.set(n, Down)
			}
		}
	}
}
