package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"syscall"

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
// Handed-off connections travel out of band: the front-end writes one byte
// carrying the connID length-prefixed header with the client socket's file
// descriptor attached as SCM_RIGHTS ancillary data on a per-back-end UNIX
// socket pair (see SendConnFD/RecvConnFD).

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
// connection ID as a fixed-width decimal.
const handoffHeaderBytes = 20

// SendConnFD performs the handoff: it sends the client connection's file
// descriptor (with the connection ID as in-band data) to a back-end over
// the UNIX socket. The front-end retains its own descriptor for the
// connection — it keeps reading client requests through it — while the
// back-end gains a descriptor it writes responses to, so response data
// bypasses the front-end exactly as with the in-kernel handoff.
func SendConnFD(uc *net.UnixConn, id core.ConnID, f *os.File) error {
	if id < 0 {
		return fmt.Errorf("cluster: handoff send: negative conn id %d", id)
	}
	oob := syscall.UnixRights(int(f.Fd()))
	var hdr [handoffHeaderBytes]byte // the ID, zero-padded
	for i, n := len(hdr)-1, int64(id); i >= 0; i, n = i-1, n/10 {
		hdr[i] = '0' + byte(n%10)
	}
	n, oobn, err := uc.WriteMsgUnix(hdr[:], oob, nil)
	if err != nil {
		return fmt.Errorf("cluster: handoff send: %w", err)
	}
	if n != len(hdr) || oobn != len(oob) {
		return fmt.Errorf("cluster: handoff send: short write (%d/%d data, %d/%d oob)", n, len(hdr), oobn, len(oob))
	}
	return nil
}

// RecvConnFD receives one handed-off connection: the connection ID and a
// net.Conn wrapping the received descriptor.
func RecvConnFD(uc *net.UnixConn) (core.ConnID, net.Conn, error) {
	var hdr [handoffHeaderBytes]byte
	buf := hdr[:]
	oob := make([]byte, syscall.CmsgSpace(4))
	n, oobn, _, _, err := uc.ReadMsgUnix(buf, oob)
	if err != nil {
		return 0, nil, err
	}
	if n != len(buf) {
		return 0, nil, fmt.Errorf("cluster: handoff recv: short header (%d bytes)", n)
	}
	digits := bytes.TrimLeft(buf, "0")
	if len(digits) == 0 {
		digits = buf[len(buf)-1:] // ID 0
	}
	id, ok := parseWireInt(digits, math.MaxInt64)
	if !ok {
		return 0, nil, fmt.Errorf("cluster: handoff recv: bad conn id %q", buf)
	}
	cmsgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err != nil || len(cmsgs) == 0 {
		return 0, nil, fmt.Errorf("cluster: handoff recv: no control message (%v)", err)
	}
	fds, err := syscall.ParseUnixRights(&cmsgs[0])
	if err != nil || len(fds) != 1 {
		return 0, nil, fmt.Errorf("cluster: handoff recv: expected 1 fd (%v)", err)
	}
	f := os.NewFile(uintptr(fds[0]), "handoff-conn")
	conn, err := net.FileConn(f)
	f.Close() // FileConn dups; release our copy
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: handoff recv: %w", err)
	}
	return core.ConnID(id), conn, nil
}
