package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"phttp/internal/core"
	"phttp/internal/dstate"
)

// Sockets of the scale-out front-end tier. The tier's protocol is
// dstate.Member, the same one the simulator runs; this file carries it
// between processes. One TCP stream per (dialer, acceptor) front-end pair
// opens with HELLO PEER and speaks protocol.go's lines: a peerLink is the
// dialer's dstate.Peer and encodes each call as a line — POPEN (answered
// by PNODE), PCLOSE, PMOVE, or one sync round's PMAPD deltas and PLOADV
// load vector — and servePeer decodes the acceptor's side into the
// member's Peer methods. Interner IDs are per-process, so targets travel
// as names (URL paths, whitespace-free) and each side interns locally;
// IDs are never recycled, so a journaled ID still names its target when
// the round is sent.
//
// A malformed POPEN, or any line the acceptor cannot read, ends the
// session and the dialer falls back to deciding locally; a malformed
// one-way line is dropped, as a lost one would be. When an inbound
// session ends, the member releases the connections it held for that
// origin and drops its load vector (dstate.Member.PeerLost).

// DefaultSyncInterval is the replicated store's sync period when the
// configuration does not set one: fresh enough that a mapping learned on
// one front-end steers its peers within a few RTTs of traffic, coarse
// enough that sync traffic stays negligible next to request traffic.
const DefaultSyncInterval = 50 * time.Millisecond

// Peer dial bring-up tolerates refused connections with bounded linear
// backoff, like back-end dials: tier members are sibling processes
// typically launched in sequence, so the first members up must wait for
// the last member's listener rather than fatal on connection refused.
const (
	peerRedials       = 10
	peerRedialBackoff = 100 * time.Millisecond
)

// peerLink is one outbound connection to a tier peer, and the member's
// dstate.Peer for it. Calls serialize on mu (write + optional reply read
// under one critical section — state transactions are short and rare
// relative to request work). A link that errors goes down for good and
// every later call reports the peer unreachable: peer loss degrades
// locality, never availability.
type peerLink struct {
	in   *core.Interner
	mu   sync.Mutex
	conn net.Conn // nil until connect, and once down
	br   *bufio.Reader
	down atomic.Bool
}

var _ dstate.Peer = (*peerLink)(nil)

// peerTier carries a front-end's tier member over sockets: the peer
// listener, one outbound link per peer, the inbound sessions and the sync
// ticker.
type peerTier struct {
	member *dstate.Member
	fe     int
	in     *core.Interner
	ln     net.Listener
	links  []*peerLink // index = front-end id; nil at our own slot

	// inbound tracks accepted peer sessions so Close can unblock their
	// read loops: a peer tears its outbound links down only in its own
	// Close, and tier members close in arbitrary order.
	imu     sync.Mutex
	inbound map[net.Conn]struct{}

	syncInterval time.Duration // replicated only; 0 runs no sync loop
	closed       chan struct{}
	closeMu      sync.Once
	wg           sync.WaitGroup
}

// newPeerTier binds the peer listener and builds the front-end's member
// over pol, its own policy replica/shard; links are established later by
// connect, once every member's listener exists.
func newPeerTier(cfg FrontEndConfig, pol core.Policy) (*peerTier, error) {
	t := &peerTier{
		fe:      cfg.FEID,
		links:   make([]*peerLink, cfg.Frontends),
		inbound: make(map[net.Conn]struct{}),
		closed:  make(chan struct{}),
	}
	if cfg.State == dstate.ModeReplicated {
		t.syncInterval = cfg.SyncInterval
		if t.syncInterval <= 0 {
			t.syncInterval = DefaultSyncInterval
		}
	}
	peers := make([]dstate.Peer, cfg.Frontends)
	for f := range peers {
		if f != cfg.FEID {
			t.links[f] = &peerLink{}
			peers[f] = t.links[f]
		}
	}
	var err error
	if t.member, err = dstate.NewMember(cfg.State, cfg.FEID, pol, peers); err != nil {
		return nil, err
	}
	listen := cfg.PeerListen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	if t.ln, err = net.Listen("tcp", listen); err != nil {
		return nil, fmt.Errorf("cluster: frontend %d peer listen: %w", cfg.FEID, err)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// finishInit hands the tier the engine's interner once the engine
// exists (the engine owns interner construction): wire messages carry
// target names, and the interner translates them to and from this
// process's IDs. Must run before any traffic is served.
func (t *peerTier) finishInit(in *core.Interner) {
	t.in = in
	for _, l := range t.links {
		if l != nil {
			l.in = in
		}
	}
}

// Addr is the peer listener's address (what other members dial).
func (t *peerTier) Addr() string { return t.ln.Addr().String() }

// connect dials every peer slot in addrs (index = front-end id; our own
// slot and empty entries are skipped). Called once at tier bring-up;
// replicated tiers also start their sync loop here, so journaled writes
// from the pre-connect window go in the first round.
func (t *peerTier) connect(addrs []string) error {
	for f, addr := range addrs {
		if f == t.fe || addr == "" {
			continue
		}
		if f < 0 || f >= len(t.links) {
			return fmt.Errorf("cluster: peer index %d out of tier [0,%d)", f, len(t.links))
		}
		conn, err := dialPeer(addr)
		if err != nil {
			return fmt.Errorf("cluster: frontend %d dial peer %d at %s: %w", t.fe, f, addr, err)
		}
		if _, err := conn.Write(appendHelloPeer(nil, t.fe)); err != nil {
			conn.Close()
			return err
		}
		l := t.links[f]
		l.mu.Lock()
		l.conn, l.br = conn, bufio.NewReader(conn)
		l.mu.Unlock()
	}
	if t.syncInterval > 0 {
		t.wg.Add(1)
		go t.syncLoop()
	}
	return nil
}

// dialPeer dials one peer listener, retrying refused connections with
// linear backoff: a tier's member processes start in arbitrary order, so
// the peers launched first must outwait the last listener's bind.
func dialPeer(addr string) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt <= peerRedials; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * peerRedialBackoff)
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
		for _, l := range t.links {
			if l != nil {
				l.mu.Lock()
				l.markDown()
				l.mu.Unlock()
			}
		}
		t.imu.Lock()
		for conn := range t.inbound {
			conn.Close()
		}
		t.imu.Unlock()
	})
	t.wg.Wait()
}

// syncLoop runs the member's replication round every syncInterval — the
// tier's staleness bound.
func (t *peerTier) syncLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.syncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.closed:
			return
		case <-ticker.C:
			t.member.Sync()
		}
	}
}

// --- dialer side: dstate.Peer over one link ---

func (l *peerLink) PeerOpen(origin int, conn core.ConnID, first core.Request) (core.NodeID, bool) {
	var reply ctrlMsg
	if !l.send(appendPOpen(nil, origin, conn, first.Size, first.Target), &reply) {
		return core.NoNode, false
	}
	return reply.Node, true
}

func (l *peerLink) PeerClose(origin int, conn core.ConnID) bool {
	return l.send(appendPClose(nil, origin, conn), nil)
}

func (l *peerLink) PeerMove(origin int, conn core.ConnID, to core.NodeID) bool {
	return l.send(appendPMove(nil, origin, conn, to), nil)
}

func (l *peerLink) PeerSync(origin int, deltas []dstate.MapDelta, loads []dstate.NodeLoad) bool {
	var msg []byte
	for _, d := range deltas {
		if name := l.in.Name(d.ID); name != "" {
			msg = appendPMapD(msg, d.Node, d.Size, name)
		}
	}
	return l.send(appendPLoadV(msg, origin, loads), nil)
}

// send writes lines to the peer, reporting success. The one RPC, POPEN,
// passes reply, which receives the PNODE answer, read under the same lock;
// a link that fails, or answers anything else, goes down.
func (l *peerLink) send(lines []byte, reply *ctrlMsg) bool {
	if l.down.Load() {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return false
	}
	_, err := l.conn.Write(lines)
	if err == nil && reply != nil {
		l.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		*reply, err = readCtrl(l.br)
		l.conn.SetReadDeadline(time.Time{})
	}
	if err != nil || reply != nil && reply.Kind != kindPNode {
		l.markDown()
		return false
	}
	return true
}

// markDown takes the link down for good; callers hold l.mu.
func (l *peerLink) markDown() {
	l.down.Store(true)
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
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
		select {
		case <-t.closed:
			// Close has closed the sessions it found; this one came in
			// after.
			t.imu.Unlock()
			conn.Close()
			return
		default:
		}
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

// servePeer runs one inbound peer session: HELLO from another member,
// then a line loop handing each decoded message to the member.
func (t *peerTier) servePeer(conn net.Conn) {
	br := bufio.NewReaderSize(conn, ctrlBufBytes)
	hello, err := readCtrl(br)
	if err != nil || hello.Kind != kindHelloPeer || hello.FE >= len(t.links) || hello.FE == t.fe {
		return
	}
	defer t.member.PeerLost(hello.FE)
	var reply []byte
	var delta [1]dstate.MapDelta
	for {
		msg, err := readCtrl(br)
		if err != nil {
			switch msg.Kind {
			case kindPClose, kindPMove, kindPMapD, kindPLoadV:
				continue // a malformed one-way line is dropped
			}
			return
		}
		switch msg.Kind {
		case kindPOpen:
			target := core.Target(msg.Target)
			n, ok := t.member.PeerOpen(msg.FE, msg.Conn, core.Request{Target: target, ID: t.in.Intern(target), Size: msg.Size})
			if !ok {
				return // the dialer falls back
			}
			reply = appendPNode(reply[:0], n)
			if _, err := conn.Write(reply); err != nil {
				return
			}
		case kindPClose:
			t.member.PeerClose(msg.FE, msg.Conn)
		case kindPMove:
			t.member.PeerMove(msg.FE, msg.Conn, msg.Node)
		case kindPMapD:
			delta[0] = dstate.MapDelta{ID: t.in.Intern(core.Target(msg.Target)), Node: msg.Node, Size: msg.Size}
			t.member.PeerSync(hello.FE, delta[:], nil)
		case kindPLoadV:
			t.member.PeerSync(msg.FE, nil, msg.Loads)
		default:
			return
		}
	}
}
