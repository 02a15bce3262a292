package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"syscall"
	"unsafe"

	"phttp/internal/core"
	"phttp/internal/dstate"
)

// The wire codec: every hop between nodes speaks newline-framed text lines,
// encoded by the append* functions below and parsed by parseCtrl.
//
//	front-end -> back-end, one control session per back-end:
//	  HANDOFF <conn>            (the client socket's descriptor rides this sendmsg)
//	  REQ <conn> <seq> <proto> <keep 0|1> <remote|-> <target>
//	  CLOSE <conn>
//	  RELAY <conn>              (open a relayed connection, no handoff fd)
//	back-end -> front-end:
//	  DISKQ <depth>             (periodic disk queue report)
//	  CLOSE <conn>              (refused a relayed connection: close its client)
//	  RESP <conn> <seq> <n>     (a relayed response: n bytes of HTTP follow)
//	back-end -> back-end, lateral fetch:
//	  FETCH <target>            (answered by SIZE <n> and n body bytes, or MISS)
//	front-end -> front-end, the peer tier (peers.go):
//	  HELLO PEER <fe>
//	  POPEN <fe> <conn> <size> <target>   (answered by PNODE <node|->)
//	  PCLOSE <fe> <conn>
//	  PMOVE <fe> <conn> <node>
//	  PMAPD <node> <size> <target>
//	  PLOADV <fe> <nodes> <load> <conns> ...   (one pair per node)
//
// Fields are separated by exactly one space and numbers are canonical
// decimals (no sign, no leading zero), each bounded; a load is the shortest
// decimal that reads back as the same float64 (strconv's 'g', -1), finite
// and not negative. A line the parser accepts is therefore the line the
// encoder would have produced (FuzzParseCtrl). Targets contain no space
// (the HTTP parser splits the request line on them) and come last.
//
// Under handoff and back-end forwarding the control session is a UNIX
// stream. A connection's first batch is one sendmsg — HANDOFF, its REQ lines
// and, if its last request ends the connection, CLOSE — with the client
// socket's descriptor attached (writeHandoff); later batches are plain
// writes. Linux attaches a sendmsg's descriptors to its first bytes, and a
// recvmsg that reaches them returns with them: the back-end, reading only
// with recvmsg (sessionReader), holds each descriptor no later than its
// HANDOFF line. Relay, the cross-host mechanism, runs on a TCP session: a
// relayed connection's responses come back on the session that carried its
// RELAY line.
//
// A batch travels as one write per destination, under the link's lock; the
// back-end's control loop parses each line in place in its read buffer.

// ctrlKind is the type of a wire message.
type ctrlKind uint8

const (
	kindReq ctrlKind = iota + 1
	kindClose
	kindRelay
	kindDiskQ
	kindHandoff
	kindResp
	kindFetch
	kindSize
	kindMiss
	kindHelloPeer
	kindPOpen
	kindPNode
	kindPClose
	kindPMove
	kindPMapD
	kindPLoadV
)

// verbs spells each kind on the wire.
var verbs = [...]string{
	kindReq: "REQ", kindClose: "CLOSE", kindRelay: "RELAY", kindDiskQ: "DISKQ", kindHandoff: "HANDOFF",
	kindResp: "RESP", kindFetch: "FETCH", kindSize: "SIZE", kindMiss: "MISS",
	kindHelloPeer: "HELLO PEER", kindPOpen: "POPEN", kindPNode: "PNODE", kindPClose: "PCLOSE",
	kindPMove: "PMOVE", kindPMapD: "PMAPD", kindPLoadV: "PLOADV",
}

// protoVer is the HTTP version a response must echo.
type protoVer uint8

const (
	proto10 protoVer = iota
	proto11
)

func (p protoVer) String() string {
	if p == proto11 {
		return "HTTP/1.1"
	}
	return "HTTP/1.0"
}

// protoOf maps a parsed request's protocol string (httpmsg accepts only
// the two) to its wire enum.
func protoOf(proto string) protoVer {
	if proto == "HTTP/1.1" {
		return proto11
	}
	return proto10
}

// Bounds on the numbers a line may carry; anything beyond them is a
// malformed message, not a value to act on.
const (
	maxWireNode = 1<<16 - 1     // node and front-end IDs
	maxWireInt  = math.MaxInt32 // sequence numbers, disk queue depths, loads, connection counts
	maxWireSize = 1 << 40       // byte counts: document sizes, bodies, relay frames
	// ctrlBufBytes sizes the readers of every session: the longest legal
	// line is a REQ carrying a target of httpmsg.MaxLineBytes.
	ctrlBufBytes = 16 << 10
)

// ctrlMsg is a parsed wire message. A field is set by the kinds named
// beside it.
type ctrlMsg struct {
	Kind   ctrlKind
	Proto  protoVer
	Keep   bool
	Conn   core.ConnID // REQ, CLOSE, RELAY, HANDOFF, RESP, POPEN, PCLOSE, PMOVE
	Seq    int         // REQ, RESP
	Remote core.NodeID // REQ: NoNode when the request is served locally
	Node   core.NodeID // PNODE, PMOVE (the destination), PMAPD
	FE     int         // HELLO PEER, POPEN, PCLOSE, PMOVE, PLOADV: the origin
	Depth  int         // DISKQ
	Size   int64       // RESP, SIZE, POPEN, PMAPD: a byte count
	// Target (REQ, FETCH, POPEN, PMAPD) aliases the parsed line: valid
	// until the reader that produced the line is read again.
	Target []byte
	// Loads (PLOADV) is allocated for the message and is the caller's.
	Loads []dstate.NodeLoad
}

// appendReq appends a REQ message to dst.
//
//phttp:hotpath
func appendReq(dst []byte, id core.ConnID, seq int, proto protoVer, keep bool, remote core.NodeID, target core.Target) []byte {
	dst = strconv.AppendInt(append(dst, "REQ "...), int64(id), 10)
	dst = strconv.AppendInt(append(dst, ' '), int64(seq), 10)
	dst = append(append(dst, ' '), proto.String()...)
	if keep {
		dst = append(dst, " 1 "...)
	} else {
		dst = append(dst, " 0 "...)
	}
	if remote == core.NoNode {
		dst = append(dst, '-')
	} else {
		dst = strconv.AppendInt(dst, int64(remote), 10)
	}
	return append(append(append(dst, ' '), target...), '\n')
}

// appendLine appends kind's verb, a decimal per number and, when there is
// one, the target.
func appendLine(dst []byte, kind ctrlKind, target core.Target, ns ...int64) []byte {
	dst = append(dst, verbs[kind]...)
	for _, n := range ns {
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, n, 10)
	}
	if target != "" {
		dst = append(append(dst, ' '), target...)
	}
	return append(dst, '\n')
}

// The encoders of the grammar above, one per message.

func appendHandoff(dst []byte, c core.ConnID) []byte {
	return appendLine(dst, kindHandoff, "", int64(c))
}
func appendClose(dst []byte, id core.ConnID) []byte { return appendLine(dst, kindClose, "", int64(id)) }
func appendRelay(dst []byte, id core.ConnID) []byte { return appendLine(dst, kindRelay, "", int64(id)) }
func appendDiskQ(dst []byte, depth int) []byte      { return appendLine(dst, kindDiskQ, "", int64(depth)) }
func appendResp(dst []byte, id core.ConnID, seq int, n int64) []byte {
	return appendLine(dst, kindResp, "", int64(id), int64(seq), n)
}
func appendFetch(dst []byte, target core.Target) []byte { return appendLine(dst, kindFetch, target) }
func appendSize(dst []byte, n int64) []byte             { return appendLine(dst, kindSize, "", n) }
func appendMiss(dst []byte) []byte                      { return appendLine(dst, kindMiss, "") }
func appendHelloPeer(dst []byte, fe int) []byte         { return appendLine(dst, kindHelloPeer, "", int64(fe)) }
func appendPOpen(dst []byte, fe int, id core.ConnID, size int64, target core.Target) []byte {
	return appendLine(dst, kindPOpen, target, int64(fe), int64(id), size)
}
func appendPNode(dst []byte, n core.NodeID) []byte {
	if n == core.NoNode { // the policy found no node to take the connection
		return appendLine(dst, kindPNode, "-")
	}
	return appendLine(dst, kindPNode, "", int64(n))
}
func appendPClose(dst []byte, fe int, id core.ConnID) []byte {
	return appendLine(dst, kindPClose, "", int64(fe), int64(id))
}
func appendPMove(dst []byte, fe int, id core.ConnID, to core.NodeID) []byte {
	return appendLine(dst, kindPMove, "", int64(fe), int64(id), int64(to))
}
func appendPMapD(dst []byte, n core.NodeID, size int64, target core.Target) []byte {
	return appendLine(dst, kindPMapD, target, int64(n), size)
}

// appendPLoadV appends a PLOADV message carrying one pair per node.
func appendPLoadV(dst []byte, fe int, loads []dstate.NodeLoad) []byte {
	dst = appendLine(dst, kindPLoadV, "", int64(fe), int64(len(loads)))
	dst = dst[:len(dst)-1]
	for _, l := range loads {
		// Charging and releasing fractions of a unit can leave a node's
		// load a rounding error below zero; the wire carries no sign.
		dst = strconv.AppendFloat(append(dst, ' '), max(l.Load, 0), 'g', -1, 64)
		dst = strconv.AppendInt(append(dst, ' '), max(l.Conns, 0), 10)
	}
	return append(dst, '\n')
}

// parseCtrl parses one line (without its newline) in place. A malformed
// line's error comes with the Kind its verb names (zero for an unknown
// verb), so that a reader can tell which message it lost.
//
//phttp:hotpath
func parseCtrl(line []byte) (ctrlMsg, error) {
	l := wireLine{rest: line, more: true, ok: true}
	verb := l.field()
	if string(verb) == "HELLO" && l.more { // the role is part of the verb
		verb = line[:len(verb)+1+len(l.field())]
	}
	m := ctrlMsg{Remote: core.NoNode}
	for k, v := range verbs[1:] { // REQ, the per-request line, first
		if v == string(verb) {
			m.Kind = ctrlKind(k + 1)
			break
		}
	}
	switch m.Kind {
	case 0:
		return badCtrl(0, line)
	case kindReq:
		m.Conn, m.Seq = l.conn(), l.seq()
		switch string(l.field()) {
		case "HTTP/1.1":
			m.Proto = proto11
		case "HTTP/1.0":
		default:
			l.ok = false
		}
		switch string(l.field()) {
		case "1":
			m.Keep = true
		case "0":
		default:
			l.ok = false
		}
		m.Remote, m.Target = l.nodeOrNone(), l.target()
	case kindClose, kindRelay, kindHandoff:
		m.Conn = l.conn()
	case kindDiskQ:
		m.Depth = int(l.num(l.field(), maxWireInt))
	case kindResp:
		m.Conn, m.Seq, m.Size = l.conn(), l.seq(), l.size()
	case kindFetch:
		m.Target = l.target()
	case kindSize:
		m.Size = l.size()
	case kindHelloPeer:
		m.FE = l.fe()
	case kindPOpen:
		m.FE, m.Conn, m.Size, m.Target = l.fe(), l.conn(), l.size(), l.target()
	case kindPNode:
		m.Node = l.nodeOrNone()
	case kindPClose:
		m.FE, m.Conn = l.fe(), l.conn()
	case kindPMove:
		m.FE, m.Conn, m.Node = l.fe(), l.conn(), l.node()
	case kindPMapD:
		m.Node, m.Size, m.Target = l.node(), l.size(), l.target()
	case kindPLoadV:
		m.FE, m.Loads = l.fe(), l.loads()
	}
	if !l.end() {
		return badCtrl(m.Kind, line)
	}
	return m, nil
}

// badCtrl is parseCtrl's cold error path. It formats a copy of the line, so
// that a caller's buffer does not escape.
func badCtrl(kind ctrlKind, line []byte) (ctrlMsg, error) {
	return ctrlMsg{Kind: kind}, fmt.Errorf("cluster: malformed wire message %q", string(line))
}

// wireLine walks the space-separated fields of one line. A field that is
// missing or malformed clears ok, and with it the whole parse.
type wireLine struct {
	rest []byte
	more bool // rest holds one more field at least
	ok   bool
}

func (l *wireLine) field() []byte {
	if !l.more {
		l.ok = false
		return nil
	}
	i := bytes.IndexByte(l.rest, ' ')
	if i < 0 {
		f := l.rest
		l.rest, l.more = nil, false
		return f
	}
	f := l.rest[:i]
	l.rest = l.rest[i+1:]
	return f
}

// num parses field f as a wire number no larger than max.
func (l *wireLine) num(f []byte, max int64) int64 {
	n, ok := parseWireInt(f, max)
	l.ok = l.ok && ok
	return n
}

func (l *wireLine) conn() core.ConnID { return core.ConnID(l.num(l.field(), math.MaxInt64)) }
func (l *wireLine) seq() int          { return int(l.num(l.field(), maxWireInt)) }
func (l *wireLine) size() int64       { return l.num(l.field(), maxWireSize) }
func (l *wireLine) node() core.NodeID { return core.NodeID(l.num(l.field(), maxWireNode)) }
func (l *wireLine) fe() int           { return int(l.num(l.field(), maxWireNode)) }

// nodeOrNone takes a node ID, or "-" for NoNode.
func (l *wireLine) nodeOrNone() core.NodeID {
	if f := l.field(); string(f) != "-" {
		return core.NodeID(l.num(f, maxWireNode))
	}
	return core.NoNode
}

// target takes a target: a non-empty field, the line's last.
func (l *wireLine) target() []byte {
	f := l.field()
	l.ok = l.ok && len(f) > 0
	return f
}

// loads takes a PLOADV vector: a node count, then a load and a connection
// count per node.
func (l *wireLine) loads() []dstate.NodeLoad {
	n := l.num(l.field(), maxWireNode+1)
	// A pair takes four bytes at least ("0 0 "): a count the line cannot
	// hold allocates nothing.
	if !l.ok || n > int64(len(l.rest)+1)/4 {
		l.ok = false
		return nil
	}
	v := make([]dstate.NodeLoad, n)
	for i := range v {
		load, ok := parseWireFloat(l.field(), maxWireInt)
		v[i].Load, l.ok = load, l.ok && ok
		v[i].Conns = l.num(l.field(), maxWireInt)
	}
	return v
}

// end reports whether the line parsed whole: every field well formed and
// none left over.
func (l *wireLine) end() bool { return l.ok && !l.more }

// parseWireInt parses a canonical non-negative decimal no larger than max:
// digits only, no leading zero, no overflow.
func parseWireInt(b []byte, max int64) (int64, bool) {
	if len(b) == 0 || len(b) > 19 || (b[0] == '0' && len(b) > 1) {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if n > (max-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseWireFloat parses a canonical float no larger than max: not negative
// (nor a negative zero), finite, and spelled as strconv.AppendFloat(…, 'g',
// -1, 64) spells it, so that no two lines carry the same value.
func parseWireFloat(b []byte, max float64) (float64, bool) {
	if len(b) == 0 || len(b) > 32 || b[0] == '-' {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil || !(v >= 0 && v <= max) { // NaN fails both
		return 0, false
	}
	var buf [32]byte
	return v, string(strconv.AppendFloat(buf[:0], v, 'g', -1, 64)) == string(b)
}

// readCtrl reads and parses the next message. The message's Target aliases
// br's buffer and is valid until the next read. A line that does not fit
// the buffer (size readers with ctrlBufBytes) is an error.
func readCtrl(br *bufio.Reader) (ctrlMsg, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			err = fmt.Errorf("cluster: wire message over %d bytes", br.Size())
		}
		return ctrlMsg{}, err
	}
	return parseCtrl(line[:len(line)-1])
}

// rightsMsg is a message's ancillary data, laid out as the kernel reads and
// writes it: an SCM_RIGHTS control message with room for two descriptors.
// A sender uses the first syscall.CmsgSpace(4) bytes, for one. A receiver
// offers it all: alignment gives a buffer for one descriptor room for a
// second anyway, and declared room is room a copy of the struct keeps, so a
// message that carries two is rejected with both in hand.
type rightsMsg struct {
	hdr syscall.Cmsghdr
	fds [2]int32
}

func (m *rightsMsg) bytes() []byte {
	return (*[unsafe.Sizeof(rightsMsg{})]byte)(unsafe.Pointer(m))[:]
}

// take returns the descriptor a received message carried, -1 when it
// carried none. A message with more than one, or one whose descriptors did
// not fit (MSG_CTRUNC), is refused: ok is false, and every descriptor it
// brought is closed.
func (m *rightsMsg) take(oobn, flags int) (fd int, ok bool) {
	if flags&syscall.MSG_CTRUNC == 0 {
		if oobn == 0 {
			return -1, true
		}
		if m.hdr.Level == syscall.SOL_SOCKET && m.hdr.Type == syscall.SCM_RIGHTS &&
			uint64(m.hdr.Len) == uint64(syscall.CmsgLen(4)) {
			return int(m.fds[0]), true
		}
	}
	closeRights(*m, oobn)
	return -1, false
}

// closeRights closes the descriptors of a refused message. It takes the
// message by value: the caller's stays where it is.
func closeRights(m rightsMsg, oobn int) {
	cmsgs, _ := syscall.ParseSocketControlMessage(m.bytes()[:oobn])
	for i := range cmsgs {
		fds, _ := syscall.ParseUnixRights(&cmsgs[i])
		for _, fd := range fds {
			syscall.Close(fd)
		}
	}
}

// writeHandoff sends msgs, a HANDOFF line first, in one sendmsg with
// descriptor fd attached as SCM_RIGHTS. The kernel installs a descriptor of
// the same socket in the receiving process and leaves the sender's as it
// was, mode included: the front-end sends its client socket's descriptor
// as accept4 returned it (FrontEnd.handOff) and goes on reading requests
// from it, while the back-end's responses bypass the front-end as with the
// paper's in-kernel handoff. What a full socket did not take follows in a
// plain write (the descriptor left with the first bytes), under the
// caller's lock.
//
//phttp:hotpath
func writeHandoff(uc *net.UnixConn, msgs []byte, fd int) error {
	m := rightsMsg{fds: [2]int32{int32(fd)}}
	m.hdr.Level, m.hdr.Type = syscall.SOL_SOCKET, syscall.SCM_RIGHTS
	m.hdr.SetLen(syscall.CmsgLen(4))
	n, _, err := uc.WriteMsgUnix(msgs, m.bytes()[:syscall.CmsgSpace(4)], nil)
	if err == nil && n < len(msgs) {
		_, err = uc.Write(msgs[n:])
	}
	return err
}

// SendConnFD hands off the connection f is a descriptor of, for callers
// that hold an *os.File: one HANDOFF message carrying it. Getting one from a
// live connection (net.TCPConn.File) dups it, and f.Fd() puts the socket —
// every descriptor of it — in blocking mode: RecvConnFD undoes that for the
// receiver, but the sender must not go on using the connection. The
// front-end does neither (see FrontEnd.handOff).
func SendConnFD(uc *net.UnixConn, id core.ConnID, f *os.File) error {
	if id < 0 {
		return errors.New("cluster: handoff send: negative connection ID")
	}
	var buf [handoffLineMax]byte
	return writeHandoff(uc, appendHandoff(buf[:0], id), int(f.Fd()))
}

// handoffLineMax bounds a HANDOFF line: verb, space, 19 digits, newline.
const handoffLineMax = 32

// RecvConnFD receives one message SendConnFD sent, as a back-end's session
// does (sessionReader, parseCtrl, claim), and returns the descriptor as an
// *os.File (adoptFD). Anything but a HANDOFF line with one descriptor is an
// error, and the descriptors it brought close.
func RecvConnFD(uc *net.UnixConn) (core.ConnID, *os.File, error) {
	sr := sessionReader{uc: uc}
	defer sr.close() // what no HANDOFF claimed
	var buf [handoffLineMax]byte
	n, err := sr.Read(buf[:])
	var msg ctrlMsg
	if err == nil && n > 0 && buf[n-1] == '\n' {
		msg, err = parseCtrl(buf[:n-1])
	}
	if err != nil || msg.Kind != kindHandoff || len(sr.fds) == 0 {
		return 0, nil, fmt.Errorf("cluster: handoff recv %q with %d descriptors: want one HANDOFF line with one (%v)", buf[:n], len(sr.fds), err)
	}
	fd, _ := sr.claim()
	f, err := adoptFD(fd)
	return msg.Conn, f, err
}

// adoptRaw readies a received client socket's descriptor for the
// back-end's writes as it is: close-on-exec already (the receiving call
// sets it) and non-blocking — one fcntl, and a second only for a sender
// that cleared O_NONBLOCK (an *os.File sender, see SendConnFD). No dup, no
// address lookups, no poller. On failure the descriptor is closed.
func adoptRaw(fd int) error {
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return err
	}
	return nil
}

// adoptFD is adoptRaw for RecvConnFD's callers, who get the descriptor as
// an *os.File registered with the poller, so that a write honours a
// deadline and a full socket buffer parks the goroutine, not a thread. Do
// not ask the file for its Fd: that would put the socket, which the
// front-end still reads, in blocking mode.
func adoptFD(fd int) (*os.File, error) {
	if err := adoptRaw(fd); err != nil {
		return nil, err
	}
	return os.NewFile(uintptr(fd), "handoff-conn"), nil
}

// sessionReader is the back-end's reading side of a UNIX control session.
// Every read is a recvmsg — a plain read would close the descriptors it
// passes over — and the descriptors received wait in arrival order for the
// HANDOFF lines that claim them. A message that brings more than one ends
// the session.
type sessionReader struct {
	uc  *net.UnixConn
	m   rightsMsg
	fds []int // received, not yet claimed
}

func (r *sessionReader) Read(p []byte) (int, error) {
	n, oobn, flags, _, err := r.uc.ReadMsgUnix(p, r.m.bytes())
	if fd, ok := r.m.take(oobn, flags); !ok {
		return 0, errors.New("cluster: session message with more than one descriptor")
	} else if fd >= 0 {
		r.fds = append(r.fds, fd)
	}
	return max(n, 0), err // n is -1 on an error, which bufio does not take
}

// claim returns the oldest descriptor not yet claimed; ok is false when
// there is none. A TCP session has no reader (r is nil) and no descriptors.
func (r *sessionReader) claim() (fd int, ok bool) {
	if r == nil || len(r.fds) == 0 {
		return -1, false
	}
	fd = r.fds[0]
	r.fds = r.fds[:copy(r.fds, r.fds[1:])]
	return fd, true
}

// close closes the descriptors the session received and no line claimed.
func (r *sessionReader) close() {
	for _, fd := range r.fds {
		syscall.Close(fd)
	}
}
