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

// Control protocol between front-end and back-ends, one TCP (or UNIX)
// stream per back-end, newline-framed text messages. The paper's control
// session carries handoff coordination, tagged requests and disk queue
// reports; ours carries:
//
//	FE -> BE:
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
// A pipelined batch travels as one write per destination: the front-end
// appends the batch's REQ lines (and a leading RELAY when the destination
// is new to the connection) into one buffer and writes it under the link's
// lock; the back-end's control loop reads lines out of a buffered reader
// and parses each in place, without copying it.
//
// Handed-off connections travel out of band: the front-end writes a
// fixed-width header carrying the connID, with the client socket's file
// descriptor attached as SCM_RIGHTS ancillary data, on a per-back-end UNIX
// socket (see sendHandoff/RecvConnFD).

// ctrlKind is the type of a control message.
type ctrlKind uint8

const (
	kindReq ctrlKind = iota + 1
	kindClose
	kindRelay
	kindDiskQ
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

// appendIDMsg appends a "<verb> <n>\n" message: CLOSE, RELAY and DISKQ.
func appendIDMsg(dst []byte, verb string, n int64) []byte {
	dst = append(dst, verb...)
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '\n')
}

func appendClose(dst []byte, id core.ConnID) []byte { return appendIDMsg(dst, "CLOSE ", int64(id)) }
func appendRelay(dst []byte, id core.ConnID) []byte { return appendIDMsg(dst, "RELAY ", int64(id)) }
func appendDiskQ(dst []byte, depth int) []byte      { return appendIDMsg(dst, "DISKQ ", int64(depth)) }

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
	case "CLOSE", "RELAY":
		m.Kind = kindClose
		if verb[0] == 'R' {
			m.Kind = kindRelay
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

// badCtrl is parseCtrl's cold error path.
func badCtrl(line []byte) (ctrlMsg, error) {
	return ctrlMsg{}, fmt.Errorf("cluster: malformed control message %q", line)
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

// handoffHeaderBytes is the in-band part of a handoff message: the
// connection ID as a fixed-width decimal, zero-padded.
const handoffHeaderBytes = 20

// appendHandoffHeader appends the handoff header for connection id.
func appendHandoffHeader(dst []byte, id core.ConnID) []byte {
	var hdr [handoffHeaderBytes]byte
	for i, n := len(hdr)-1, int64(id); i >= 0; i, n = i-1, n/10 {
		hdr[i] = '0' + byte(n%10)
	}
	return append(dst, hdr[:]...)
}

// parseHandoffHeader parses what appendHandoffHeader wrote: exactly
// handoffHeaderBytes digits whose value fits a ConnID.
func parseHandoffHeader(hdr []byte) (core.ConnID, bool) {
	if len(hdr) != handoffHeaderBytes {
		return 0, false
	}
	digits := bytes.TrimLeft(hdr, "0")
	if len(digits) == 0 {
		digits = hdr[len(hdr)-1:] // ID 0
	}
	id, ok := parseWireInt(digits, math.MaxInt64)
	return core.ConnID(id), ok
}

// rightsMsg is a handoff message's ancillary data, laid out as the kernel
// reads and writes it: an SCM_RIGHTS control message with room for two
// descriptors. A sender uses the first syscall.CmsgSpace(4) bytes, for one.
// A receiver offers it all: alignment gives a buffer for one descriptor room
// for a second anyway, and declared room is room a copy of the struct keeps,
// so a message that carries two is rejected with both in hand.
type rightsMsg struct {
	hdr syscall.Cmsghdr
	fds [2]int32
}

func (m *rightsMsg) bytes() []byte {
	return (*[unsafe.Sizeof(rightsMsg{})]byte)(unsafe.Pointer(m))[:]
}

var (
	errHandoffID    = errors.New("cluster: handoff send: negative connection ID")
	errHandoffShort = errors.New("cluster: handoff send: short write")
)

// sendHandoff is the handoff: one sendmsg carrying the connection ID in
// band and descriptor fd as SCM_RIGHTS. The kernel installs a descriptor of
// the same socket in the receiving process and leaves the sender's as it
// was, mode included: the front-end lends its client socket's descriptor
// for the call (FrontEnd.handOff) and goes on reading requests from it,
// while the back-end's responses bypass the front-end as with the paper's
// in-kernel handoff.
//
//phttp:hotpath
func sendHandoff(uc *net.UnixConn, id core.ConnID, fd int) error {
	if id < 0 {
		return errHandoffID
	}
	var hb [handoffHeaderBytes]byte
	hdr := appendHandoffHeader(hb[:0], id)
	m := rightsMsg{fds: [2]int32{int32(fd)}}
	m.hdr.Level, m.hdr.Type = syscall.SOL_SOCKET, syscall.SCM_RIGHTS
	m.hdr.SetLen(syscall.CmsgLen(4))
	oob := m.bytes()[:syscall.CmsgSpace(4)]
	n, oobn, err := uc.WriteMsgUnix(hdr, oob, nil)
	if err == nil && (n != len(hdr) || oobn != len(oob)) {
		err = errHandoffShort
	}
	return err
}

// SendConnFD hands off the connection f is a descriptor of, for callers
// that hold an *os.File. Getting one from a live connection
// (net.TCPConn.File) dups it, and f.Fd() puts the socket — every descriptor
// of it — in blocking mode: RecvConnFD undoes that for the receiver, but
// the sender must not go on using the connection. The front-end does
// neither (see FrontEnd.handOff).
func SendConnFD(uc *net.UnixConn, id core.ConnID, f *os.File) error {
	return sendHandoff(uc, id, int(f.Fd()))
}

// RecvConnFD receives one handed-off connection: its ID and the received
// descriptor, adopted as it is — close-on-exec already (the receiving call
// sets it), non-blocking, registered with the poller once, so that a write
// honours a deadline and a full socket buffer parks the goroutine, not a
// thread. No dup, no address lookups. A message that is not twenty digits
// with one descriptor is an error, and what descriptors it carried are
// closed. Do not ask the file for its Fd: that would put the socket, which
// the front-end still reads, in blocking mode.
func RecvConnFD(uc *net.UnixConn) (core.ConnID, *os.File, error) {
	var hdr [handoffHeaderBytes]byte
	var m rightsMsg
	n, oobn, flags, _, err := uc.ReadMsgUnix(hdr[:], m.bytes())
	if err != nil {
		return 0, nil, err
	}
	id, ok := parseHandoffHeader(hdr[:n])
	one := m.hdr.Level == syscall.SOL_SOCKET && m.hdr.Type == syscall.SCM_RIGHTS &&
		uint64(m.hdr.Len) == uint64(syscall.CmsgLen(4))
	if !ok || !one || flags&syscall.MSG_CTRUNC != 0 {
		return 0, nil, rejectHandoff(string(hdr[:n]), m, oobn, flags)
	}
	// NewFile registers with the poller only a descriptor it finds
	// non-blocking; the front-end's is, an *os.File sender's is not.
	fd := int(m.fds[0])
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return 0, nil, err
	}
	return id, os.NewFile(uintptr(fd), "handoff-conn"), nil
}

// rejectHandoff closes the descriptors a malformed handoff message carried
// and describes it. It takes the message by value: the caller's stays on
// its stack.
func rejectHandoff(hdr string, m rightsMsg, oobn, flags int) error {
	closed := 0
	if cmsgs, err := syscall.ParseSocketControlMessage(m.bytes()[:oobn]); err == nil {
		for i := range cmsgs {
			fds, _ := syscall.ParseUnixRights(&cmsgs[i])
			for _, fd := range fds {
				syscall.Close(fd)
				closed++
			}
		}
	}
	return fmt.Errorf("cluster: handoff recv: header %q with %d descriptors (flags %#x)", hdr, closed, flags)
}
