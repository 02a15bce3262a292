// Package core defines the shared vocabulary of the P-HTTP cluster system:
// targets, requests, pipelined batches, connections, distribution mechanisms,
// and the request-distribution Policy interface implemented by WRR, LARD and
// extended LARD.
//
// The same policy code drives both the trace-driven simulator
// (internal/sim) and the prototype cluster (internal/cluster), mirroring the
// paper's design where the dispatcher module embodies the policy in both the
// simulation study and the FreeBSD prototype.
package core

import (
	"fmt"
	"strings"
)

// Micros is a duration or point in time measured in microseconds. The
// simulator's clock, all CPU cost constants and all disk service times are
// expressed in Micros; 300 MHz Pentium II-era server costs are naturally
// microsecond-scale quantities.
type Micros int64

// Common conversions.
const (
	Millisecond Micros = 1000
	Second      Micros = 1000 * 1000
)

// Seconds converts m to floating-point seconds.
func (m Micros) Seconds() float64 { return float64(m) / float64(Second) }

func (m Micros) String() string {
	switch {
	case m >= Second:
		return fmt.Sprintf("%.3fs", m.Seconds())
	case m >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(m)/float64(Millisecond))
	default:
		return fmt.Sprintf("%dµs", int64(m))
	}
}

// NodeID identifies a back-end node in the cluster. Valid nodes are numbered
// 0..N-1; NoNode marks "unassigned".
type NodeID int

// NoNode is the zero-value-adjacent sentinel for an unassigned node.
const NoNode NodeID = -1

func (n NodeID) String() string {
	if n == NoNode {
		return "none"
	}
	return fmt.Sprintf("be%d", int(n))
}

// Target names a Web document: the URL path plus any applicable arguments of
// the HTTP GET, exactly the paper's use of the term.
type Target string

// Request is one HTTP request: a target plus the size of the response body
// it produces. Traces carry the response size (as Web server logs do), so
// both the simulator and the prototype doc store can reproduce the transfer.
//
// ID is the interned form of Target (see Interner). The trace loader for the
// simulator and the dispatch engine for the prototype fill it in before any
// policy or cache model sees the request; NoTarget means "not interned yet".
// Everything on the per-event path keys off ID, so the hot loops never hash
// the target string.
type Request struct {
	Target Target
	ID     TargetID
	Size   int64 // response body bytes
}

// Batch is a group of pipelined requests. Clients send all requests of a
// batch back to back without waiting for responses, but wait for the full
// batch of responses before sending the next batch (the paper's model of
// HTTP/1.1 pipelining derived from the 1-second spacing heuristic).
type Batch []Request

// Requests returns the total number of requests in the batch.
func (b Batch) Requests() int { return len(b) }

// Bytes returns the total response bytes of the batch.
func (b Batch) Bytes() int64 {
	var t int64
	for _, r := range b {
		t += r.Size
	}
	return t
}

// Connection is one client TCP connection as reconstructed from a trace: an
// ordered sequence of pipelined batches. An HTTP/1.0 connection is a single
// batch holding a single request.
type Connection struct {
	// Batches in arrival order.
	Batches []Batch
}

// Requests returns the total number of requests on the connection.
func (c Connection) Requests() int {
	n := 0
	for _, b := range c.Batches {
		n += len(b)
	}
	return n
}

// Bytes returns the total response bytes of the connection.
func (c Connection) Bytes() int64 {
	var t int64
	for _, b := range c.Batches {
		t += b.Bytes()
	}
	return t
}

// Mechanism enumerates the content-based request distribution mechanisms of
// Section 3 of the paper.
type Mechanism int

const (
	// SingleHandoff transfers the established client connection to one
	// back-end once; every request on the connection is then served by
	// that node, whatever the policy would have preferred.
	SingleHandoff Mechanism = iota
	// MultipleHandoff allows the connection to migrate between back-ends
	// at request boundaries, paying a per-migration overhead.
	MultipleHandoff
	// BEForwarding is single handoff plus lateral fetches: the
	// connection-handling node requests foreign content from the back-end
	// that caches it and forwards the response on its client connection.
	BEForwarding
	// RelayFrontEnd keeps both connection endpoints at the front-end,
	// which relays requests and responses; distribution is per-request
	// but all response bytes cross the front-end CPU.
	RelayFrontEnd
	// ZeroCostHandoff is the idealized simulation-only mechanism that
	// reassigns a persistent connection with no overhead at all. It upper
	// bounds any practical mechanism.
	ZeroCostHandoff
)

func (m Mechanism) String() string {
	switch m {
	case SingleHandoff:
		return "singleHandoff"
	case MultipleHandoff:
		return "multiHandoff"
	case BEForwarding:
		return "BEforward"
	case RelayFrontEnd:
		return "relayFE"
	case ZeroCostHandoff:
		return "zeroCost"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// ParseMechanism resolves a mechanism name to its value. It accepts the
// String() forms ("singleHandoff", "multiHandoff", "BEforward", "relayFE",
// "zeroCost") case-insensitively, plus the abbreviations the command-line
// flags have always taken ("beforward", "relay"). This is the single parser
// for every config surface — scenario files, policy options and flags — so
// a mechanism name means the same thing everywhere.
func ParseMechanism(s string) (Mechanism, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "singlehandoff", "single":
		return SingleHandoff, nil
	case "multihandoff", "multi":
		return MultipleHandoff, nil
	case "beforward", "beforwarding":
		return BEForwarding, nil
	case "relayfe", "relay":
		return RelayFrontEnd, nil
	case "zerocost", "zerocosthandoff":
		return ZeroCostHandoff, nil
	}
	return 0, fmt.Errorf("core: unknown mechanism %q (valid: singleHandoff, multiHandoff, BEforward, relayFE, zeroCost)", s)
}

// PerRequest reports whether the mechanism can direct individual requests of
// a persistent connection to different back-end nodes.
func (m Mechanism) PerRequest() bool { return m != SingleHandoff }

// ConnID identifies a live client connection at the front-end.
type ConnID int64

// RemoteCharge is one node's fractional load charged for the in-flight
// batch (the paper's 1/N accounting).
type RemoteCharge struct {
	Node NodeID
	Frac float64
}

// ConnState is the front-end dispatcher's view of one live client
// connection. Policies mutate the embedded bookkeeping; drivers (simulator,
// prototype front-end) own the lifecycle.
type ConnState struct {
	ID       ConnID
	Handling NodeID // connection-handling node; NoNode before first assignment
	Requests int    // requests assigned so far
	Batches  int    // batches assigned so far

	// OwnerFE is the index of the front-end owning this connection's
	// dispatch state in a scale-out front-end tier (dstate sharded mode
	// routes the connection's state transactions there); -1 when the
	// connection's state is local, which single-front-end deployments
	// always are.
	OwnerFE int32

	// RemoteLoad records the fractional load currently charged to remote
	// nodes for the in-flight batch. It is cleared (truncated, keeping its
	// backing array for the next batch) when the next batch arrives or the
	// connection goes idle, so steady-state batch accounting allocates
	// nothing.
	RemoteLoad []RemoteCharge

	// Assignments and Scratch are reusable buffers owned by the connection.
	// Calls for one connection are serialized (the dispatch engine's
	// contract), so policies use them to return per-batch assignments and
	// to collect candidate nodes without allocating per batch. Callers of
	// AssignBatch must consume the returned slice before the next call on
	// the same connection.
	Assignments []Assignment
	Scratch     []NodeID
}

// NewConnState returns a fresh connection record.
func NewConnState(id ConnID) *ConnState {
	return &ConnState{ID: id, Handling: NoNode, OwnerFE: -1}
}

// Reset prepares a recycled connection record for a new connection: the
// bookkeeping is zeroed while the reusable buffers (RemoteLoad,
// Assignments, Scratch) keep their backing arrays, so a pooled record's
// steady-state lifecycle allocates nothing.
func (c *ConnState) Reset(id ConnID) {
	c.ID = id
	c.Handling = NoNode
	c.Requests = 0
	c.Batches = 0
	c.OwnerFE = -1
	c.RemoteLoad = c.RemoteLoad[:0]
	c.Assignments = c.Assignments[:0]
	c.Scratch = c.Scratch[:0]
}

// AssignBuf returns a length-n assignment slice backed by the connection's
// reusable buffer.
func (c *ConnState) AssignBuf(n int) []Assignment {
	if cap(c.Assignments) < n {
		c.Assignments = make([]Assignment, n)
	}
	c.Assignments = c.Assignments[:n]
	return c.Assignments
}

// Assignment is a policy decision for a single request.
type Assignment struct {
	// Node does the work of producing the response body.
	Node NodeID
	// Forward is set when Node differs from the connection-handling node
	// under BE forwarding: the handling node must fetch laterally from
	// Node and forward the response itself.
	Forward bool
	// Migrate is set when the connection-handling node changes under
	// multiple handoff; the connection now belongs to Node and From
	// records the node it left.
	Migrate bool
	// From is the previous handling node of a migrating assignment.
	From NodeID
}

// ServerKind selects the back-end HTTP server cost model.
type ServerKind int

const (
	// Apache models the widely used Apache 1.3.x process-per-connection
	// server of the paper's testbed.
	Apache ServerKind = iota
	// Flash models the aggressively optimized single-process event-driven
	// research server (Pai et al. '99).
	Flash
)

func (s ServerKind) String() string {
	switch s {
	case Apache:
		return "apache"
	case Flash:
		return "flash"
	default:
		return fmt.Sprintf("ServerKind(%d)", int(s))
	}
}
