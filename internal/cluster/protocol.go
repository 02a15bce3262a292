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
)

// Control protocol between front-end and back-ends: one session per
// back-end, newline-framed text messages. As the paper's control session
// does, it carries the handoffs, the tagged requests and the disk queue
// reports:
//
//	FE -> BE:
//	  HANDOFF <connID>          (the client socket's descriptor rides this sendmsg)
//	  REQ <connID> <seq> <proto> <keep 0|1> <remote|-> <target>
//	  CLOSE <connID>
//	  RELAY <connID>            (open a relayed connection, no handoff fd)
//	BE -> FE:
//	  DISKQ <depth>             (periodic disk queue report)
//	  CLOSE <connID>            (refused a relayed connection: close its client)
//
// Fields are separated by exactly one space and numbers are canonical
// decimals (no sign, no leading zero), so a line the parser accepts is the
// line the encoder would have produced. Targets contain no space (the HTTP
// parser splits the request line on them); REQ places the target last so
// future extensions stay simple.
//
// Under handoff and back-end forwarding the session is a UNIX stream. A
// connection's first batch is one sendmsg — HANDOFF, its REQ lines and, if
// its last request ends the connection, CLOSE — with the client socket's
// descriptor attached (writeHandoff); later batches are plain writes. Linux
// attaches a sendmsg's descriptors to its first bytes, and a recvmsg that
// reaches them returns with them: the back-end, reading only with recvmsg
// (sessionReader), holds each descriptor no later than its HANDOFF line.
// Relay, the cross-host mechanism, keeps a TCP session.
//
// A batch travels as one write per destination, under the link's lock; the
// back-end's control loop parses each line in place in its read buffer.

// ctrlKind is the type of a control message.
type ctrlKind uint8

const (
	kindReq ctrlKind = iota + 1
	kindClose
	kindRelay
	kindDiskQ
	kindHandoff
)

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

// Bounds on the numbers a control line may carry; anything beyond them is
// a malformed message, not a value to act on.
const (
	maxWireNode = 1<<16 - 1
	maxWireInt  = math.MaxInt32 // sequence numbers, disk queue depths
	// ctrlBufBytes sizes control-session readers: the longest legal line
	// is a REQ carrying a target of httpmsg.MaxLineBytes.
	ctrlBufBytes = 16 << 10
)

// ctrlMsg is a parsed control message.
type ctrlMsg struct {
	Kind   ctrlKind
	Proto  protoVer
	Keep   bool
	Conn   core.ConnID
	Seq    int
	Remote core.NodeID // NoNode when the request is served locally
	// Target aliases the parsed line: valid until the reader that produced
	// the line is read again.
	Target []byte
	Depth  int // DISKQ
}

// appendReq appends a REQ message to dst.
//
//phttp:hotpath
func appendReq(dst []byte, id core.ConnID, seq int, proto protoVer, keep bool, remote core.NodeID, target core.Target) []byte {
	dst = append(dst, "REQ "...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, ' ')
	dst = append(dst, proto.String()...)
	dst = append(dst, ' ')
	if keep {
		dst = append(dst, "1 "...)
	} else {
		dst = append(dst, "0 "...)
	}
	if remote == core.NoNode {
		dst = append(dst, '-')
	} else {
		dst = strconv.AppendInt(dst, int64(remote), 10)
	}
	dst = append(dst, ' ')
	dst = append(dst, target...)
	return append(dst, '\n')
}

// appendIDMsg appends a "<verb> <n>\n" message: HANDOFF, CLOSE, RELAY and
// DISKQ.
func appendIDMsg(dst []byte, verb string, n int64) []byte {
	dst = append(dst, verb...)
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '\n')
}

func appendHandoff(dst []byte, id core.ConnID) []byte { return appendIDMsg(dst, "HANDOFF ", int64(id)) }
func appendClose(dst []byte, id core.ConnID) []byte   { return appendIDMsg(dst, "CLOSE ", int64(id)) }
func appendRelay(dst []byte, id core.ConnID) []byte   { return appendIDMsg(dst, "RELAY ", int64(id)) }
func appendDiskQ(dst []byte, depth int) []byte        { return appendIDMsg(dst, "DISKQ ", int64(depth)) }

// parseCtrl parses one control line (without its newline) in place.
//
//phttp:hotpath
func parseCtrl(line []byte) (ctrlMsg, error) {
	verb, rest, _ := cutSpace(line)
	m := ctrlMsg{Remote: core.NoNode}
	switch string(verb) {
	case "REQ":
		m.Kind = kindReq
		conn, rest, ok1 := cutSpace(rest)
		seq, rest, ok2 := cutSpace(rest)
		proto, rest, ok3 := cutSpace(rest)
		keep, rest, ok4 := cutSpace(rest)
		remote, target, ok5 := cutSpace(rest)
		if !(ok1 && ok2 && ok3 && ok4 && ok5) || len(target) == 0 || bytes.IndexByte(target, ' ') >= 0 {
			return badCtrl(line)
		}
		id, ok := parseWireInt(conn, math.MaxInt64)
		n, okSeq := parseWireInt(seq, maxWireInt)
		if !ok || !okSeq {
			return badCtrl(line)
		}
		m.Conn, m.Seq = core.ConnID(id), int(n)
		switch string(proto) {
		case "HTTP/1.1":
			m.Proto = proto11
		case "HTTP/1.0":
			m.Proto = proto10
		default:
			return badCtrl(line)
		}
		switch string(keep) {
		case "1":
			m.Keep = true
		case "0":
		default:
			return badCtrl(line)
		}
		if string(remote) != "-" {
			r, ok := parseWireInt(remote, maxWireNode)
			if !ok {
				return badCtrl(line)
			}
			m.Remote = core.NodeID(r)
		}
		m.Target = target
		return m, nil
	case "CLOSE", "RELAY", "HANDOFF":
		switch verb[0] {
		case 'C':
			m.Kind = kindClose
		case 'R':
			m.Kind = kindRelay
		default:
			m.Kind = kindHandoff
		}
		id, ok := parseWireInt(rest, math.MaxInt64)
		if !ok {
			return badCtrl(line)
		}
		m.Conn = core.ConnID(id)
		return m, nil
	case "DISKQ":
		m.Kind = kindDiskQ
		d, ok := parseWireInt(rest, maxWireInt)
		if !ok {
			return badCtrl(line)
		}
		m.Depth = int(d)
		return m, nil
	}
	return badCtrl(line)
}

// badCtrl is parseCtrl's cold error path. It formats a copy of the line, so
// that a caller's buffer does not escape.
func badCtrl(line []byte) (ctrlMsg, error) {
	return ctrlMsg{}, fmt.Errorf("cluster: malformed control message %q", string(line))
}

// cutSpace splits b at its first space.
func cutSpace(b []byte) (field, rest []byte, ok bool) {
	i := bytes.IndexByte(b, ' ')
	if i < 0 {
		return b, nil, false
	}
	return b[:i], b[i+1:], true
}

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

// readCtrl reads and parses the next control message. The message's Target
// aliases br's buffer and is valid until the next read. A line that does
// not fit the buffer (size readers with ctrlBufBytes) is an error.
func readCtrl(br *bufio.Reader) (ctrlMsg, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			err = fmt.Errorf("cluster: control message over %d bytes", br.Size())
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
// was, mode included: the front-end lends its client socket's descriptor
// for the call (FrontEnd.handOff) and goes on reading requests from it,
// while the back-end's responses bypass the front-end as with the paper's
// in-kernel handoff. What a full socket did not take follows in a plain
// write (the descriptor left with the first bytes), under the caller's lock.
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
// does (sessionReader, parseCtrl, claim, adoptFD). Anything but a HANDOFF
// line with one descriptor is an error, and the descriptors it brought close.
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

// adoptFD takes a received client socket's descriptor as it is:
// close-on-exec already (the receiving call sets it), non-blocking,
// registered with the poller once, so that a write honours a deadline and a
// full socket buffer parks the goroutine, not a thread. No dup, no address
// lookups. Do not ask the file for its Fd: that would put the socket, which
// the front-end still reads, in blocking mode.
func adoptFD(fd int) (*os.File, error) {
	// NewFile registers with the poller only a descriptor it finds
	// non-blocking; the front-end's is, an *os.File sender's is not.
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
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
