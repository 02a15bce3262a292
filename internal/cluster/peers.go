package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/policy"
)

// Peer protocol of the scale-out front-end tier: one TCP stream per
// (dialer, acceptor) front-end pair, newline-framed text, mirroring the
// back-end control protocol's framing. Interner IDs are per-process, so
// targets travel as strings (URL paths, whitespace-free) and each side
// interns locally.
//
//	on dial:        HELLO PEER <feid>
//	sharded (origin -> shard owner, connection-state transactions):
//	  POPEN <originFE> <connID> <size> <target>   -> reply PNODE <node>
//	  PCLOSE <originFE> <connID>                  (no reply)
//	  PMOVE <originFE> <connID> <to>              (no reply)
//	replicated (origin -> every peer, bounded-staleness sync; no replies):
//	  PMAPD <node> <size> <target>                (one mapping delta)
//	  PLOADV <originFE> <nodes> <load0> <conns0> ...  (full load vector)
//
// Mapping deltas are journaled in origin write order and applied in
// arrival order, so a conflict between origins on the same target
// resolves last-writer-wins, exactly like the in-process dstate.Tier.
// PLOADV carries each origin's *locally charged* load so a receiver sums
// peers without double-counting (see core.LoadTracker.SetRemote).

// DefaultSyncInterval is the replicated store's sync period when the
// configuration does not set one: fresh enough that a mapping learned on
// one front-end steers its peers within a few RTTs of traffic, coarse
// enough that sync traffic stays negligible next to request traffic.
const DefaultSyncInterval = 50 * time.Millisecond

// DefaultStateSeed salts the shard-ownership ring when the configuration
// does not; every member of one tier must agree on it.
const DefaultStateSeed = 0x9e3779b97f4a7c15

// Peer dial bring-up tolerates refused connections with bounded linear
// backoff, like back-end dials: tier members are sibling processes
// typically launched in sequence, so the first members up must wait for
// the last member's listener rather than fatal on connection refused.
const (
	defaultPeerDialRetries = 10
	defaultPeerDialBackoff = 100 * time.Millisecond
)

// remoteKey names a connection owned here on behalf of a peer front-end.
type remoteKey struct {
	fe int
	id core.ConnID
}

// peerLink is one outbound connection to a tier peer. RPCs serialize on
// mu (write + optional reply read under one critical section — the
// sharded store's state transactions are short and rare relative to
// request work). A link that errors is marked down and the store falls
// back to local decisions: peer loss degrades locality, never
// availability.
type peerLink struct {
	addr string
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	down atomic.Bool
}

// peerTier is a front-end's view of the networked dispatch-state tier:
// it owns the peer listener, the outbound links, and — per mode — the
// shard-ownership ring or the replication journal, and implements
// dstate.Store over the front-end's local policy replica/shard.
type peerTier struct {
	mode dstate.Mode
	fe   int
	pol  core.Policy
	in   *core.Interner
	ring *policy.OwnerRing // sharded mode only

	ln    net.Listener
	peers []*peerLink // index = front-end id; nil at our own slot

	// Replication journal (replicated mode): mapping writes observed on
	// the local replica, pending broadcast.
	jmu     sync.Mutex
	pending []wireDelta

	// peerLoads/peerConns hold the latest load vector received from each
	// peer; remote bases are the per-node sums over peers.
	lmu       sync.Mutex
	peerLoads [][]float64
	peerConns [][]int64

	// remote holds connections owned here for peer front-ends (sharded).
	rmu    sync.Mutex
	remote map[remoteKey]*core.ConnState

	// inbound tracks accepted peer sessions so Close can unblock their
	// read loops: a peer tears its outbound links down only in its own
	// Close, and tier members close in arbitrary order.
	imu     sync.Mutex
	inbound map[net.Conn]struct{}

	nodes        int
	syncInterval time.Duration
	syncs        atomic.Int64
	// remoteOpens counts connection opens whose dispatch decision came
	// from a peer shard owner.
	remoteOpens atomic.Int64
	// fallbacks counts state transactions decided locally because the
	// owning peer was unreachable (metrics: locality lost, not requests).
	fallbacks atomic.Int64

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// wireDelta is one journaled mapping write awaiting broadcast; the target
// travels by name because interner IDs are per-process.
type wireDelta struct {
	target core.Target
	node   core.NodeID
	size   int64
}

var _ dstate.Store = (*peerTier)(nil)

// newPeerTier binds the peer listener and prepares the tier state; links
// are established later by ConnectPeers, once every member's listener
// exists. pol is the front-end's own policy replica/shard.
func newPeerTier(cfg FrontEndConfig, pol core.Policy) (*peerTier, error) {
	t := &peerTier{
		mode:         cfg.State,
		fe:           cfg.FEID,
		pol:          pol,
		peers:        make([]*peerLink, cfg.Frontends),
		remote:       make(map[remoteKey]*core.ConnState),
		peerLoads:    make([][]float64, cfg.Frontends),
		peerConns:    make([][]int64, cfg.Frontends),
		inbound:      make(map[net.Conn]struct{}),
		nodes:        cfg.Nodes,
		syncInterval: cfg.SyncInterval,
		closed:       make(chan struct{}),
	}
	if t.syncInterval <= 0 {
		t.syncInterval = DefaultSyncInterval
	}
	seed := cfg.StateSeed
	if seed == 0 {
		seed = DefaultStateSeed
	}
	if cfg.State == dstate.ModeSharded {
		t.ring = policy.NewOwnerRing(cfg.Frontends, 0, seed)
	}
	listen := cfg.PeerListen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: frontend %d peer listen: %w", cfg.FEID, err)
	}
	t.ln = ln
	if cfg.State == dstate.ModeReplicated {
		if mp, ok := pol.(dstate.MappingPolicy); ok {
			mp.Mapping().SetWriteObserver(t.journal)
		}
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// finishInit hands the tier the engine's interner once the engine
// exists (the engine owns interner construction). Wire messages carry
// target strings; the interner is how the tier translates them to and
// from this process's IDs. Must run before any traffic is served.
func (t *peerTier) finishInit(in *core.Interner) { t.in = in }

// Addr is the peer listener's address (what other members dial).
func (t *peerTier) Addr() string { return t.ln.Addr().String() }

// Syncs returns completed replication rounds (metrics, tests).
func (t *peerTier) Syncs() int64 { return t.syncs.Load() }

// Fallbacks returns state transactions decided locally because the
// owning peer was unreachable.
func (t *peerTier) Fallbacks() int64 { return t.fallbacks.Load() }

// connect dials every peer slot in addrs (index = front-end id; our own
// slot and empty entries are skipped). Called once at tier bring-up;
// replicated tiers also start their sync loop here, so journaled writes
// from the pre-connect window broadcast in the first round.
func (t *peerTier) connect(addrs []string) error {
	for f, addr := range addrs {
		if f == t.fe || addr == "" {
			continue
		}
		if f < 0 || f >= len(t.peers) {
			return fmt.Errorf("cluster: peer index %d out of tier [0,%d)", f, len(t.peers))
		}
		conn, err := t.dialPeer(addr)
		if err != nil {
			return fmt.Errorf("cluster: frontend %d dial peer %d at %s: %w", t.fe, f, addr, err)
		}
		if _, err := fmt.Fprintf(conn, "HELLO PEER %d\n", t.fe); err != nil {
			conn.Close()
			return err
		}
		t.peers[f] = &peerLink{addr: addr, conn: conn, br: bufio.NewReader(conn)}
	}
	if t.mode == dstate.ModeReplicated {
		t.wg.Add(1)
		go t.syncLoop()
	}
	return nil
}

// dialPeer dials one peer listener, retrying refused connections with
// linear backoff: a tier's member processes start in arbitrary order, so
// the peers launched first must outwait the last listener's bind.
func (t *peerTier) dialPeer(addr string) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt <= defaultPeerDialRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * defaultPeerDialBackoff)
		}
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Close tears the tier down: listener, links, loops.
func (t *peerTier) Close() {
	t.closeMu.Do(func() {
		close(t.closed)
		t.ln.Close()
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
			}
			p.mu.Unlock()
		}
		t.imu.Lock()
		for conn := range t.inbound {
			conn.Close()
		}
		t.imu.Unlock()
	})
	t.wg.Wait()
}

// --- dstate.Store ---

func (t *peerTier) Mode() dstate.Mode   { return t.mode }
func (t *peerTier) Policy() core.Policy { return t.pol }

// Owner returns the front-end owning target id's shard (ourselves
// outside sharded mode).
func (t *peerTier) Owner(id core.TargetID) int {
	if t.ring == nil {
		return t.fe
	}
	return t.ring.Owner(id)
}

// ConnOpen decides the handling node. Replicated mode decides on the
// local replica; sharded mode forwards the whole state transaction to
// the shard owner, falling back to a local decision when the owner is
// unreachable (availability over locality). A target past a capped
// interner's cap (NoTarget) has no shard and no entry to consult: it is
// decided locally, by load.
func (t *peerTier) ConnOpen(c *core.ConnState, first core.Request) core.NodeID {
	if t.ring != nil && first.ID != core.NoTarget {
		if owner := t.ring.Owner(first.ID); owner != t.fe {
			if n, ok := t.remoteOpen(owner, c, first); ok {
				c.OwnerFE = int32(owner)
				c.Handling = n
				t.remoteOpens.Add(1)
				return n
			}
			t.fallbacks.Add(1)
		}
	}
	c.OwnerFE = int32(t.fe)
	return t.pol.ConnOpen(c, first)
}

// AssignBatch: locally owned connections get the policy's full
// assignment; connections whose state lives on a peer pin every request
// to the handling node decided at open — the sharded prototype is
// restricted to connection-granular mechanisms (see validateFEConfig),
// where that is exactly the policy's behavior.
func (t *peerTier) AssignBatch(c *core.ConnState, batch core.Batch) []core.Assignment {
	if int(c.OwnerFE) == t.fe {
		return t.pol.AssignBatch(c, batch)
	}
	as := make([]core.Assignment, len(batch))
	for i := range as {
		as[i] = core.Assignment{Node: c.Handling}
	}
	return as
}

func (t *peerTier) BatchDone(c *core.ConnState) {
	if int(c.OwnerFE) == t.fe {
		t.pol.BatchDone(c)
	}
}

func (t *peerTier) ConnClose(c *core.ConnState) {
	owner := int(c.OwnerFE)
	if owner == t.fe {
		t.pol.ConnClose(c)
		return
	}
	if !t.send(owner, fmt.Sprintf("PCLOSE %d %d\n", t.fe, c.ID)) {
		// Owner unreachable: its replica keeps the connection charged
		// until the link (or the owner) restarts; nothing to release
		// locally — we never charged this connection here.
		t.fallbacks.Add(1)
	}
	c.Handling = core.NoNode
}

func (t *peerTier) MoveConn(c *core.ConnState, to core.NodeID) {
	owner := int(c.OwnerFE)
	if owner == t.fe {
		t.pol.Loads().MoveConn(c.Handling, to)
		c.Handling = to
		return
	}
	if !t.send(owner, fmt.Sprintf("PMOVE %d %d %d\n", t.fe, c.ID, to)) {
		t.fallbacks.Add(1)
	}
	c.Handling = to
}

func (t *peerTier) ReportDiskQueue(n core.NodeID, queued int) {
	t.pol.ReportDiskQueue(n, queued)
}

// --- origin side of the sharded RPCs ---

// remoteOpen runs the connection-open transaction on the shard owner and
// returns its decision; ok is false when the owner is unreachable or the
// reply is malformed (the caller decides locally).
func (t *peerTier) remoteOpen(owner int, c *core.ConnState, first core.Request) (core.NodeID, bool) {
	p := t.peers[owner]
	if p == nil || p.down.Load() {
		return core.NoNode, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		return core.NoNode, false
	}
	if _, err := fmt.Fprintf(p.conn, "POPEN %d %d %d %s\n", t.fe, c.ID, first.Size, first.Target); err != nil {
		t.markDown(p)
		return core.NoNode, false
	}
	p.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := p.br.ReadString('\n')
	p.conn.SetReadDeadline(time.Time{})
	if err != nil {
		t.markDown(p)
		return core.NoNode, false
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 2 || fields[0] != "PNODE" {
		t.markDown(p)
		return core.NoNode, false
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 || n >= t.nodes {
		return core.NoNode, false
	}
	return core.NodeID(n), true
}

// send writes one fire-and-forget line to peer f, reporting success.
func (t *peerTier) send(f int, line string) bool {
	if f < 0 || f >= len(t.peers) {
		return false
	}
	p := t.peers[f]
	if p == nil || p.down.Load() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		return false
	}
	if _, err := io.WriteString(p.conn, line); err != nil {
		t.markDown(p)
		return false
	}
	return true
}

// markDown records a failed link; callers hold p.mu.
func (t *peerTier) markDown(p *peerLink) {
	p.down.Store(true)
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// --- replication ---

// journal records one local mapping write for the next sync round
// (installed as the mapping's write observer; synced applies bypass it,
// so gossip never re-broadcasts).
func (t *peerTier) journal(id core.TargetID, size int64, n core.NodeID) {
	name := t.in.Name(id)
	if name == "" {
		return
	}
	t.jmu.Lock()
	t.pending = append(t.pending, wireDelta{target: name, node: n, size: size})
	t.jmu.Unlock()
}

// syncLoop broadcasts the journal and the local load vector every
// syncInterval — the tier's bounded-staleness sync protocol.
func (t *peerTier) syncLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.syncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.closed:
			return
		case <-ticker.C:
			t.syncOnce()
		}
	}
}

// syncOnce runs one replication round: pending mapping deltas (in origin
// write order) then the full load vector, to every live peer.
func (t *peerTier) syncOnce() {
	t.jmu.Lock()
	deltas := t.pending
	t.pending = nil
	t.jmu.Unlock()

	var b strings.Builder
	for _, d := range deltas {
		fmt.Fprintf(&b, "PMAPD %d %d %s\n", d.node, d.size, d.target)
	}
	loads := t.pol.Loads()
	fmt.Fprintf(&b, "PLOADV %d %d", t.fe, t.nodes)
	for i := 0; i < t.nodes; i++ {
		n := core.NodeID(i)
		fmt.Fprintf(&b, " %g %d", loads.LocalLoad(n), loads.LocalConns(n))
	}
	b.WriteByte('\n')
	msg := b.String()
	for f := range t.peers {
		t.send(f, msg)
	}
	t.syncs.Add(1)
}

// --- acceptor side ---

// acceptLoop admits inbound peer sessions.
func (t *peerTier) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.imu.Lock()
		t.inbound[conn] = struct{}{}
		t.imu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer func() {
				t.imu.Lock()
				delete(t.inbound, conn)
				t.imu.Unlock()
				conn.Close()
			}()
			t.servePeer(conn)
		}()
	}
}

// servePeer runs one inbound peer session: HELLO, then a line loop over
// the sharded RPCs and replication messages.
func (t *peerTier) servePeer(conn net.Conn) {
	br := bufio.NewReader(conn)
	hello, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(hello, "HELLO PEER ") {
		return
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "POPEN":
			if reply, ok := t.handleOpen(fields[1:]); ok {
				if _, err := io.WriteString(conn, reply); err != nil {
					return
				}
			} else {
				return // malformed RPC: drop the session, dialer falls back
			}
		case "PCLOSE":
			t.handleClose(fields[1:])
		case "PMOVE":
			t.handleMove(fields[1:])
		case "PMAPD":
			t.handleMapDelta(fields[1:])
		case "PLOADV":
			t.handleLoadVector(fields[1:])
		default:
			return
		}
	}
}

// handleOpen serves a peer's connection-open transaction on our shard:
// intern the target, run the policy open on an owner-side connection
// state, remember it for the later PCLOSE/PMOVE, reply with the decision.
func (t *peerTier) handleOpen(args []string) (string, bool) {
	if len(args) != 4 {
		return "", false
	}
	fe, err1 := strconv.Atoi(args[0])
	id, err2 := strconv.ParseInt(args[1], 10, 64)
	size, err3 := strconv.ParseInt(args[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || size < 0 {
		return "", false
	}
	tid := t.in.Intern(core.Target(args[3]))
	cs := core.NewConnState(core.ConnID(id))
	cs.OwnerFE = int32(t.fe)
	n := t.pol.ConnOpen(cs, core.Request{Target: core.Target(args[3]), ID: tid, Size: size})
	t.rmu.Lock()
	t.remote[remoteKey{fe: fe, id: core.ConnID(id)}] = cs
	t.rmu.Unlock()
	return fmt.Sprintf("PNODE %d\n", n), true
}

// handleClose closes a peer's connection on our shard, releasing its load.
func (t *peerTier) handleClose(args []string) {
	if len(args) != 2 {
		return
	}
	fe, err1 := strconv.Atoi(args[0])
	id, err2 := strconv.ParseInt(args[1], 10, 64)
	if err1 != nil || err2 != nil {
		return
	}
	t.rmu.Lock()
	rc := t.remote[remoteKey{fe: fe, id: core.ConnID(id)}]
	delete(t.remote, remoteKey{fe: fe, id: core.ConnID(id)})
	t.rmu.Unlock()
	if rc == nil {
		return
	}
	t.pol.ConnClose(rc)
}

// handleMove transfers a peer connection's load unit between nodes.
func (t *peerTier) handleMove(args []string) {
	if len(args) != 3 {
		return
	}
	fe, err1 := strconv.Atoi(args[0])
	id, err2 := strconv.ParseInt(args[1], 10, 64)
	to, err3 := strconv.Atoi(args[2])
	if err1 != nil || err2 != nil || err3 != nil || to < 0 || to >= t.nodes {
		return
	}
	t.rmu.Lock()
	rc := t.remote[remoteKey{fe: fe, id: core.ConnID(id)}]
	t.rmu.Unlock()
	if rc == nil {
		return
	}
	t.pol.Loads().MoveConn(rc.Handling, core.NodeID(to))
	rc.Handling = core.NodeID(to)
}

// handleMapDelta applies one replicated mapping write to the local
// replica, bypassing the write observer (no re-broadcast).
func (t *peerTier) handleMapDelta(args []string) {
	if len(args) != 3 {
		return
	}
	node, err1 := strconv.Atoi(args[0])
	size, err2 := strconv.ParseInt(args[1], 10, 64)
	if err1 != nil || err2 != nil || node < 0 || node >= t.nodes || size < 0 {
		return
	}
	mp, ok := t.pol.(dstate.MappingPolicy)
	if !ok {
		return
	}
	id := t.in.Intern(core.Target(args[2]))
	mp.Mapping().ApplySynced(id, size, core.NodeID(node))
}

// handleLoadVector stores a peer's load vector and refreshes the local
// replica's remote base (per node: the sum over peers' local charges).
func (t *peerTier) handleLoadVector(args []string) {
	if len(args) < 2 {
		return
	}
	fe, err1 := strconv.Atoi(args[0])
	nodes, err2 := strconv.Atoi(args[1])
	if err1 != nil || err2 != nil || nodes != t.nodes || len(args) != 2+2*nodes {
		return
	}
	if fe < 0 || fe >= len(t.peerLoads) || fe == t.fe {
		return
	}
	loadv := make([]float64, nodes)
	connv := make([]int64, nodes)
	for i := 0; i < nodes; i++ {
		l, err1 := strconv.ParseFloat(args[2+2*i], 64)
		c, err2 := strconv.ParseInt(args[3+2*i], 10, 64)
		if err1 != nil || err2 != nil {
			return
		}
		loadv[i] = l
		connv[i] = c
	}
	lt := t.pol.Loads()
	t.lmu.Lock()
	t.peerLoads[fe] = loadv
	t.peerConns[fe] = connv
	for i := 0; i < nodes; i++ {
		var load float64
		var conns int64
		for f := range t.peerLoads {
			if t.peerLoads[f] == nil {
				continue
			}
			load += t.peerLoads[f][i]
			conns += t.peerConns[f][i]
		}
		lt.SetRemote(core.NodeID(i), load)
		lt.SetRemoteConns(core.NodeID(i), conns)
	}
	t.lmu.Unlock()
}
