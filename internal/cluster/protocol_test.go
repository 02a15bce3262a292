package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/httpmsg"
	"phttp/internal/server"
)

// parseLine parses an encoded message the way readCtrl does: without its
// newline.
func parseLine(t testing.TB, msg []byte) ctrlMsg {
	t.Helper()
	if len(msg) == 0 || msg[len(msg)-1] != '\n' {
		t.Fatalf("encoded message %q does not end in a newline", msg)
	}
	m, err := parseCtrl(msg[:len(msg)-1])
	if err != nil {
		t.Fatalf("parseCtrl(%q): %v", msg, err)
	}
	return m
}

// TestCtrlReqGolden: parseCtrl(appendReq(x)) == x for every combination of
// the fields, including a locally served request (remote = NoNode), the
// relay form and the extremes of the numeric ranges.
func TestCtrlReqGolden(t *testing.T) {
	if got, want := string(appendReq(nil, 42, 7, proto11, true, 3, "/docs/page.html")),
		"REQ 42 7 HTTP/1.1 1 3 /docs/page.html\n"; got != want {
		t.Fatalf("appendReq = %q, want %q", got, want)
	}
	for _, id := range []core.ConnID{0, 1, 42, 3 << 40, math.MaxInt64} {
		for _, seq := range []int{0, 9, 10, maxWireInt} {
			for _, proto := range []protoVer{proto10, proto11} {
				for _, keep := range []bool{false, true} {
					for _, remote := range []core.NodeID{core.NoNode, 0, 5, maxWireNode} {
						for _, target := range []core.Target{"/", "/x", "/a?q=1&x=%20", "/tab\there", "/cr\r"} {
							m := parseLine(t, appendReq(nil, id, seq, proto, keep, remote, target))
							if m.Kind != kindReq || m.Conn != id || m.Seq != seq || m.Proto != proto ||
								m.Keep != keep || m.Remote != remote || string(m.Target) != string(target) {
								t.Fatalf("REQ(%d %d %v %v %v %q) parsed as %+v", id, seq, proto, keep, remote, target, m)
							}
						}
					}
				}
			}
		}
	}
}

func TestCtrlCloseRelayDiskQ(t *testing.T) {
	if m := parseLine(t, appendClose(nil, 9)); m.Kind != kindClose || m.Conn != 9 {
		t.Errorf("CLOSE parse: %+v", m)
	}
	if m := parseLine(t, appendRelay(nil, 11)); m.Kind != kindRelay || m.Conn != 11 {
		t.Errorf("RELAY parse: %+v", m)
	}
	if m := parseLine(t, appendDiskQ(nil, 5)); m.Kind != kindDiskQ || m.Depth != 5 {
		t.Errorf("DISKQ parse: %+v", m)
	}
	if m := parseLine(t, appendHandoff(nil, 1<<40|3)); m.Kind != kindHandoff || m.Conn != 1<<40|3 {
		t.Errorf("HANDOFF parse: %+v", m)
	}
	// A batch travels as consecutive lines in one buffer.
	buf := appendRelay(nil, 4)
	buf = appendReq(buf, 4, 0, proto11, true, core.NoNode, "/a")
	buf = appendReq(buf, 4, 1, proto11, false, core.NoNode, "/b")
	br := bufio.NewReaderSize(bytes.NewReader(buf), ctrlBufBytes)
	for i, want := range []ctrlKind{kindRelay, kindReq, kindReq} {
		m, err := readCtrl(br)
		if err != nil || m.Kind != want || m.Conn != 4 {
			t.Fatalf("message %d of the batch: %+v, %v", i, m, err)
		}
	}
	if _, err := readCtrl(br); err != io.EOF {
		t.Errorf("after the batch: %v, want EOF", err)
	}
}

func TestCtrlMalformed(t *testing.T) {
	bad := []string{
		"", " ", "BOGUS 1", "REQ", "REQ 1 2", "REQ x 0 HTTP/1.1 1 - /t",
		"REQ 1 y HTTP/1.1 1 - /t", "REQ 1 2 HTTP/1.1 1 z /t",
		"CLOSE", "CLOSE x", "DISKQ", "DISKQ x", "RELAY", "RELAY ",
		"HANDOFF", "HANDOFF ", "HANDOFF x", "HANDOFF 05", "HANDOFF 1 2", "HANDOFF -1", "handoff 1",
		// Not canonical: signs, leading zeros, doubled or trailing spaces.
		"REQ -1 0 HTTP/1.1 1 - /t", "REQ +1 0 HTTP/1.1 1 - /t", "REQ 01 0 HTTP/1.1 1 - /t",
		"REQ 1  0 HTTP/1.1 1 - /t", "REQ 1 0 HTTP/1.1 1 - /t ", "REQ 1 0 HTTP/1.1 1 - ",
		"REQ 1 0 HTTP/1.1 1 - /t extra", "CLOSE 9 ", "CLOSE 9\r", "CLOSE 09", "DISKQ -3",
		// Out of range.
		"REQ 9223372036854775808 0 HTTP/1.1 1 - /t", "REQ 1 2147483648 HTTP/1.1 1 - /t",
		"REQ 1 0 HTTP/1.1 1 65536 /t", "REQ 1 0 HTTP/1.1 1 -1 /t",
		"CLOSE 99999999999999999999", "DISKQ 2147483648",
		// Unknown protocol or keep flag.
		"REQ 1 0 HTTP/2.0 1 - /t", "REQ 1 0 http/1.1 1 - /t", "REQ 1 0 HTTP/1.1 2 - /t",
		"REQ 1 0 HTTP/1.1 true - /t", "REQ 1 0 HTTP/1.0 2 - /t",
		// The lines between back-ends, of relayed responses and in the
		// front-end peer tier. A session announces no role but the peer
		// tier's.
		"HELLO", "HELLO ", "HELLO CTRL", "HELLO DATA", "HELLO CTRL ", "HELLO ctrl", "HELLO PEER", "HELLO PEER -1", "HELLO PEER 65536",
		"RESP 1 2", "RESP 1 2 -3", "RESP 1 2 1099511627777", "FETCH", "FETCH ", "FETCH /a /b",
		"SIZE", "SIZE -1", "SIZE 07", "SIZE 1099511627777", "MISS ", "MISS 1",
		"POPEN 1 7 -5 /x", "POPEN 1 7 5", "POPEN 1 7 5 ", "POPEN 65536 7 5 /x", "PNODE", "PNODE 65536", "PNODE -1", "PNODE - ",
		"PCLOSE 1", "PCLOSE 1 2 3", "PMOVE 1 2", "PMOVE 1 2 -1", "PMAPD 0 -5 /neg", "PMAPD 0 5",
		"PLOADV", "PLOADV 1", "PLOADV 1 2 1 2", "PLOADV 1 2 1 2 3 4 5 6", "PLOADV 1 1 1 2 ",
		"PLOADV 1 2 NaN 0 0 0", "PLOADV 1 1 Inf 0", "PLOADV 1 1 +Inf 0", "PLOADV 1 1 -1 0", "PLOADV 1 1 -0 0",
		"PLOADV 1 1 1 -2", "PLOADV 1 1 1.50 0", "PLOADV 1 1 01 0", "PLOADV 1 1 1e400 0",
		"PLOADV 1 1 1e+10 0", "PLOADV 1 1 2147483648 0", "PLOADV 1 1 0x1p-2 0", "PLOADV 1 1 .5 0",
		"PLOADV 1 16384 0 0",
	}
	for _, line := range bad {
		if m, err := parseCtrl([]byte(line)); err == nil {
			t.Errorf("accepted malformed control message %q as %+v", line, m)
		}
	}
}

// Every line between nodes has the form its encoder gives it, and parses
// back to the values encoded.
func TestWireLinesGolden(t *testing.T) {
	loads := []dstate.NodeLoad{{Load: 1.5, Conns: 2}, {Load: 0, Conns: 0}, {Load: 1.0 / 3, Conns: 7}, {Load: -1e-17, Conns: 1}}
	for _, c := range []struct {
		line []byte
		want string
		ok   func(m ctrlMsg) bool
	}{
		{appendResp(nil, 1<<40|5, 3, 4096), "RESP 1099511627781 3 4096\n", func(m ctrlMsg) bool {
			return m.Kind == kindResp && m.Conn == 1<<40|5 && m.Seq == 3 && m.Size == 4096
		}},
		{appendFetch(nil, "/a/b.html"), "FETCH /a/b.html\n", func(m ctrlMsg) bool {
			return m.Kind == kindFetch && string(m.Target) == "/a/b.html"
		}},
		{appendSize(nil, maxWireSize), "SIZE 1099511627776\n", func(m ctrlMsg) bool { return m.Kind == kindSize && m.Size == maxWireSize }},
		{appendMiss(nil), "MISS\n", func(m ctrlMsg) bool { return m.Kind == kindMiss }},
		{appendHelloPeer(nil, 2), "HELLO PEER 2\n", func(m ctrlMsg) bool { return m.Kind == kindHelloPeer && m.FE == 2 }},
		{appendPOpen(nil, 1, 7, 4096, "/x"), "POPEN 1 7 4096 /x\n", func(m ctrlMsg) bool {
			return m.Kind == kindPOpen && m.FE == 1 && m.Conn == 7 && m.Size == 4096 && string(m.Target) == "/x"
		}},
		{appendPNode(nil, 3), "PNODE 3\n", func(m ctrlMsg) bool { return m.Kind == kindPNode && m.Node == 3 }},
		{appendPNode(nil, core.NoNode), "PNODE -\n", func(m ctrlMsg) bool { return m.Kind == kindPNode && m.Node == core.NoNode }},
		{appendPClose(nil, 1, 7), "PCLOSE 1 7\n", func(m ctrlMsg) bool { return m.Kind == kindPClose && m.FE == 1 && m.Conn == 7 }},
		{appendPMove(nil, 1, 7, 2), "PMOVE 1 7 2\n", func(m ctrlMsg) bool {
			return m.Kind == kindPMove && m.FE == 1 && m.Conn == 7 && m.Node == 2
		}},
		{appendPMapD(nil, 2, 10, "/y"), "PMAPD 2 10 /y\n", func(m ctrlMsg) bool {
			return m.Kind == kindPMapD && m.Node == 2 && m.Size == 10 && string(m.Target) == "/y"
		}},
		// A rounding error below zero goes out as zero.
		{appendPLoadV(nil, 1, loads), "PLOADV 1 4 1.5 2 0 0 0.3333333333333333 7 0 1\n", func(m ctrlMsg) bool {
			return m.Kind == kindPLoadV && m.FE == 1 && len(m.Loads) == 4 &&
				m.Loads[0] == loads[0] && m.Loads[2] == loads[2] && m.Loads[3] == dstate.NodeLoad{Load: 0, Conns: 1}
		}},
	} {
		if string(c.line) != c.want {
			t.Errorf("encoded %q, want %q", c.line, c.want)
			continue
		}
		if m := parseLine(t, c.line); !c.ok(m) {
			t.Errorf("%q parsed as %+v", c.line, m)
		}
	}
}

// An oversized line is an error, not a truncated message.
func TestCtrlOversizedLine(t *testing.T) {
	long := appendReq(nil, 1, 0, proto11, true, core.NoNode, core.Target("/"+strings.Repeat("q", ctrlBufBytes)))
	if _, err := readCtrl(bufio.NewReaderSize(bytes.NewReader(long), ctrlBufBytes)); err == nil {
		t.Error("accepted a control line longer than the session buffer")
	}
	// The longest target the HTTP parser lets through still fits.
	fits := appendReq(nil, math.MaxInt64, maxWireInt, proto11, true, maxWireNode, core.Target("/"+strings.Repeat("q", httpmsg.MaxLineBytes)))
	if _, err := readCtrl(bufio.NewReaderSize(bytes.NewReader(fits), ctrlBufBytes)); err != nil {
		t.Errorf("rejected a maximal legal REQ: %v", err)
	}
}

// Property: REQ messages round trip for arbitrary IDs, sequence numbers and
// whitespace-free targets.
func TestCtrlReqRoundTripProperty(t *testing.T) {
	f := func(id uint32, seq uint16, keep bool, remote uint8, pathSeed uint8) bool {
		r := core.NodeID(remote % 16)
		if remote%5 == 0 {
			r = core.NoNode
		}
		target := core.Target("/t" + strings.Repeat("q", int(pathSeed%40)+1))
		msg := appendReq(nil, core.ConnID(id), int(seq), proto11, keep, r, target)
		m, err := parseCtrl(msg[:len(msg)-1])
		if err != nil {
			return false
		}
		return m.Conn == core.ConnID(id) && m.Seq == int(seq) &&
			m.Keep == keep && m.Remote == r && string(m.Target) == string(target)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The control codecs sit on the per-request path of both nodes: encoding
// into a buffer with room and parsing in place allocate nothing.
func TestCtrlCodecZeroAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	target := core.Target("/docs/page.html")
	if n := testing.AllocsPerRun(200, func() {
		buf = appendReq(buf[:0], 1<<40|77, 12, proto11, true, 2, target)
		buf = appendClose(buf, 77)
	}); n != 0 {
		t.Errorf("appendReq: %v allocs per message, want 0", n)
	}
	line := appendReq(nil, 1<<40|77, 12, proto11, true, 2, target)
	line = line[:len(line)-1]
	var sink ctrlMsg
	if n := testing.AllocsPerRun(200, func() {
		m, err := parseCtrl(line)
		if err != nil {
			t.Fatal(err)
		}
		sink = m
	}); n != 0 {
		t.Errorf("parseCtrl: %v allocs per message, want 0", n)
	}
	_ = sink

	// Resolving the parsed target against the document table converts in
	// the map index and does not allocate either.
	ds := NewDocStore(map[core.Target]int64{target: 100}, 1<<20, testDisk(), 1000)
	if n := testing.AllocsPerRun(200, func() {
		if ds.lookup(sink.Target) == nil {
			t.Fatal("known target did not resolve")
		}
	}); n != 0 {
		t.Errorf("DocStore.lookup: %v allocs per call, want 0", n)
	}
}

// FuzzParseCtrl: the parser of every line between nodes takes bytes from a
// socket. It never panics; a line it accepts is canonical — re-encoding the
// parsed message yields the same bytes — and every number it returns is
// inside the wire bounds.
func FuzzParseCtrl(f *testing.F) {
	for _, s := range []string{
		"REQ 42 7 HTTP/1.1 1 3 /docs/page.html", "REQ 1 0 HTTP/1.0 0 - /x",
		"CLOSE 9", "RELAY 11", "DISKQ 5", "DISKQ 0",
		"REQ 9223372036854775807 2147483647 HTTP/1.1 1 65535 /", "REQ 1 0 HTTP/1.1 1 65536 /t",
		"REQ -1 0 HTTP/1.1 1 - /t", "REQ 01 0 HTTP/1.1 1 - /t", "CLOSE 99999999999999999999",
		"REQ 1 0 HTTP/1.1 1 - /t extra", "REQ  1 0 HTTP/1.1 1 - /t", "", "REQ", "\x00",
		"HANDOFF 77", "HANDOFF 9223372036854775807", "HANDOFF 9223372036854775808", "HANDOFF 077", "HANDOFF",
		// The retired session roles: the parser must now refuse them.
		"HELLO CTRL", "HELLO DATA",
		"HELLO PEER 3", "RESP 5 1 4096", "FETCH /a", "SIZE 65536", "SIZE 01", "MISS",
		"POPEN 1 7 4096 /x", "POPEN 1 7 -5 /x", "PNODE 2", "PNODE -", "PCLOSE 1 7", "PMOVE 1 7 2", "PMAPD 0 10 /ok",
		"PLOADV 1 2 1.5 2 0.25 1", "PLOADV 1 2 NaN 0 0 0", "PLOADV 1 1 Inf 0", "PLOADV 1 1 -0 0",
		"PLOADV 1 1 -1 0", "PLOADV 1 1 1.50 0", "PLOADV 1 1 1e+400 0", "PLOADV 1 1 1e-05 99999999999",
		"PLOADV 1 65536 0 0", "PLOADV 0 0",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		m, err := parseCtrl(line)
		if err != nil {
			return
		}
		var back []byte
		switch m.Kind {
		case kindReq:
			if m.Remote != core.NoNode && (m.Remote < 0 || m.Remote > maxWireNode) {
				t.Fatalf("accepted node %d", m.Remote)
			}
			if m.Conn < 0 || m.Seq < 0 || m.Seq > maxWireInt || len(m.Target) == 0 {
				t.Fatalf("accepted out-of-range REQ %+v", m)
			}
			back = appendReq(nil, m.Conn, m.Seq, m.Proto, m.Keep, m.Remote, core.Target(m.Target))
		case kindClose:
			back = appendClose(nil, m.Conn)
		case kindRelay:
			back = appendRelay(nil, m.Conn)
		case kindHandoff:
			back = appendHandoff(nil, m.Conn)
		case kindDiskQ:
			if m.Depth < 0 || m.Depth > maxWireInt {
				t.Fatalf("accepted depth %d", m.Depth)
			}
			back = appendDiskQ(nil, m.Depth)
		case kindResp:
			back = appendResp(nil, m.Conn, m.Seq, m.Size)
		case kindFetch:
			back = appendFetch(nil, core.Target(m.Target))
		case kindSize:
			back = appendSize(nil, m.Size)
		case kindMiss:
			back = appendMiss(nil)
		case kindHelloPeer:
			back = appendHelloPeer(nil, m.FE)
		case kindPOpen:
			back = appendPOpen(nil, m.FE, m.Conn, m.Size, core.Target(m.Target))
		case kindPNode:
			back = appendPNode(nil, m.Node)
		case kindPClose:
			back = appendPClose(nil, m.FE, m.Conn)
		case kindPMove:
			back = appendPMove(nil, m.FE, m.Conn, m.Node)
		case kindPMapD:
			back = appendPMapD(nil, m.Node, m.Size, core.Target(m.Target))
		case kindPLoadV:
			for _, l := range m.Loads {
				if !(l.Load >= 0 && l.Load <= maxWireInt) || math.Signbit(l.Load) || l.Conns < 0 || l.Conns > maxWireInt {
					t.Fatalf("accepted load vector entry %+v", l)
				}
			}
			back = appendPLoadV(nil, m.FE, m.Loads)
		default:
			t.Fatalf("accepted a message of unknown kind: %+v", m)
		}
		if m.Conn < 0 || m.Seq < 0 || m.Seq > maxWireInt || m.Size < 0 || m.Size > maxWireSize ||
			m.Node < core.NoNode || m.Node > maxWireNode || m.FE < 0 || m.FE > maxWireNode {
			t.Fatalf("accepted out-of-range numbers %+v", m)
		}
		if string(back) != string(line)+"\n" {
			t.Fatalf("accepted %q, which re-encodes as %q", line, back)
		}
		if len(line) > ctrlBufBytes {
			// readCtrl refuses such a line before parseCtrl sees it.
			long := append(append([]byte(nil), line...), '\n')
			if _, err := readCtrl(bufio.NewReaderSize(bytes.NewReader(long), ctrlBufBytes)); err == nil {
				t.Fatalf("readCtrl accepted a %d-byte line", len(line))
			}
		}
	})
}

// TestFDPassing exercises the handoff primitive end to end: a TCP socket's
// descriptor crosses a UNIX socketpair; the receiver writes to the client
// through it while the sender keeps reading — the paper's control/data
// split.
func TestFDPassing(t *testing.T) {
	// Client <-> "front-end" TCP connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	clientDone := make(chan string, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			clientDone <- "dial: " + err.Error()
			return
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("ping\n")); err != nil {
			clientDone <- err.Error()
			return
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			clientDone <- err.Error()
			return
		}
		clientDone <- line
	}()
	feConn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer feConn.Close()

	// UNIX socketpair standing in for the FE->BE handoff channel.
	hoDir := t.TempDir()
	uaddr, _ := net.ResolveUnixAddr("unix", hoDir+"/ho.sock")
	uln, err := net.ListenUnix("unix", uaddr)
	if err != nil {
		t.Fatal(err)
	}
	defer uln.Close()
	sendSide, err := net.DialUnix("unix", nil, uaddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sendSide.Close()
	recvSide, err := uln.AcceptUnix()
	if err != nil {
		t.Fatal(err)
	}
	defer recvSide.Close()

	// Hand the client socket off.
	f, err := feConn.(*net.TCPConn).File()
	if err != nil {
		t.Fatal(err)
	}
	if err := SendConnFD(sendSide, 77, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	id, beConn, err := RecvConnFD(recvSide)
	if err != nil {
		t.Fatal(err)
	}
	defer beConn.Close()
	if id != 77 {
		t.Errorf("handoff conn id = %d, want 77", id)
	}

	// The "front-end" reads the request on its descriptor...
	line, err := bufio.NewReader(feConn).ReadString('\n')
	if err != nil || line != "ping\n" {
		t.Fatalf("FE read %q, %v", line, err)
	}
	// ...and the "back-end" answers directly on the handed-off one.
	if _, err := beConn.Write([]byte("pong\n")); err != nil {
		t.Fatal(err)
	}
	if got := <-clientDone; got != "pong\n" {
		t.Errorf("client received %q, want pong", got)
	}
}

func TestDocStoreBasics(t *testing.T) {
	catalog := map[core.Target]int64{"/a": 1000, "/b": 2000}
	ds := NewDocStore(catalog, 10<<10, testDisk(), 1000)
	if _, err := ds.Open("/missing"); err == nil {
		t.Error("Open of unknown target succeeded")
	}
	sz, err := ds.Open("/a")
	if err != nil || sz != 1000 {
		t.Fatalf("Open(/a) = %d, %v", sz, err)
	}
	if h, m := ds.Counters(); h != 0 || m != 1 {
		t.Errorf("counters %d/%d after cold read, want 0/1", h, m)
	}
	ds.Open("/a")
	if h, _ := ds.Counters(); h != 1 {
		t.Error("second read of /a was not a hit")
	}
	if ds.HitRate() != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", ds.HitRate())
	}
}

func TestDocStoreEviction(t *testing.T) {
	catalog := map[core.Target]int64{"/a": 800, "/b": 800}
	ds := NewDocStore(catalog, 1000, testDisk(), 1000)
	ds.Open("/a")
	ds.Open("/b") // evicts /a
	ds.Open("/a") // must miss again
	if h, m := ds.Counters(); h != 0 || m != 3 {
		t.Errorf("counters %d/%d, want 0 hits 3 misses", h, m)
	}
}

// The simulated disk keeps the modelled time: N back-to-back misses take
// N read times of wall clock, not N read times plus N timer overshoots. A
// read time of 1.5 ms is not a whole number of the milliseconds an idle
// runtime sleeps in, so each sleep ends late.
func TestDiskGateKeepsModelledTime(t *testing.T) {
	const (
		reads = 200
		read  = 1500 * time.Microsecond
	)
	catalog := make(map[core.Target]int64, reads)
	for i := range reads {
		catalog[core.Target(fmt.Sprintf("/d%d", i))] = 512
	}
	ds := NewDocStore(catalog, 1<<20, server.DiskParams{Position: 1499, TransferPer512: 1}, 1)
	if got := ds.readTime(512); got != read {
		t.Fatalf("read time %v, want %v", got, read)
	}
	start := time.Now()
	for _, dc := range ds.docs {
		ds.read(dc)
	}
	ratio := float64(time.Since(start)) / float64(reads*read)
	if ratio < 1 || ratio > 1.05 {
		t.Errorf("%d reads of %v took %.3fx the modelled time, want 1.00-1.05x", reads, read, ratio)
	}
}

// Closing a back-end ends its modelled disk reads: Close returns at once
// while one lateral fetch holds the disk for a modelled second and
// another waits for its turn.
func TestBackendCloseEndsModelledRead(t *testing.T) {
	be, err := NewBackend(BackendConfig{
		ID: 1, Catalog: map[core.Target]int64{"/a": 512, "/b": 512}, CacheBytes: 1 << 20,
		Disk:          server.DiskParams{Position: core.Second},
		HandoffSocket: filepath.Join(t.TempDir(), "be1.sock"),
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := newPeerPool(be.PeerAddr())
	defer pool.close()
	var fetches sync.WaitGroup
	for _, target := range []core.Target{"/a", "/b"} {
		fetches.Add(1)
		go func() {
			defer fetches.Done()
			pc := <-pool
			defer func() { pool <- pc }()
			pc.fetch(target) // fails once the node closes
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, m := be.Store().Counters(); m == 2 && be.Store().queued.Load() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the two fetches never reached the disk")
		}
	}
	start := time.Now()
	be.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Close took %v with a 1 s read in progress, want under 100 ms", d)
	}
	fetches.Wait()
}

func TestContentDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := WriteContent(&a, "/x", 5000); err != nil {
		t.Fatal(err)
	}
	if err := WriteContent(&b, "/x", 5000); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("content not deterministic")
	}
	var c strings.Builder
	WriteContent(&c, "/y", 5000)
	if a.String() == c.String() {
		t.Error("different targets produced identical content")
	}
	if int64(a.Len()) != 5000 {
		t.Errorf("content length %d, want 5000", a.Len())
	}
	for i := int64(0); i < 64; i++ {
		if a.String()[i] != ContentByte("/x", i) {
			t.Fatalf("ContentByte mismatch at %d", i)
		}
	}
	// The pattern's definition, which clients on other commits verify
	// against: the target, '#', a counter at least four digits wide, '|',
	// repeated and cut at 1 KB.
	for _, tgt := range []core.Target{"/x", "/a/longer/target.html", core.Target("/" + strings.Repeat("p", 1200))} {
		var want []byte
		for i := 0; len(want) < 1<<10; i++ {
			want = append(want, fmt.Sprintf("%s#%04d|", tgt, i)...)
		}
		if got := contentChunk(tgt); string(got) != string(want[:1<<10]) {
			t.Errorf("pattern of %.20q... departs from its definition", tgt)
		}
	}
}

// contentChunk is one period of t's content, as the generator writes it.
func contentChunk(t core.Target) []byte {
	b := make([]byte, chunkBytes)
	fillContent(b, t, 0)
	return b
}

// The generator agrees with ContentByte, the layout clients check against:
// for targets of every length from one byte to past the period, over three
// periods from offset 0; and for three targets, a span of every length
// from 1 to 1100 bytes started at every offset from 0 to 3072.
func TestContentByteMatchesPattern(t *testing.T) {
	check := func(tgt core.Target, b []byte, off int64) {
		t.Helper()
		fillContent(b, tgt, off)
		for i := range b {
			if got, want := b[i], ContentByte(tgt, off+int64(i)); got != want {
				t.Fatalf("target of %d bytes, %d bytes from offset %d: byte %d is %q, ContentByte %q", len(tgt), len(b), off, i, got, want)
			}
		}
	}
	name := []byte("/")
	buf := make([]byte, 3<<10+1)
	for n := 1; n <= 1100; n++ {
		check(core.Target(name), buf, 0)
		name = append(name, byte('a'+n%26))
	}
	for _, tgt := range []core.Target{"/x", "/a/longer/target.html", core.Target(name)} {
		for off := int64(0); off <= 3<<10; off++ {
			check(tgt, buf[:1+(off*37)%1100], off)
		}
	}
}

// testDisk returns a tiny disk model so unit tests never sleep long.
func testDisk() server.DiskParams {
	return server.DiskParams{Position: 100, TransferPer512: 1}
}
