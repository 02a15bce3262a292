package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"phttp/internal/core"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadRequestBasic(t *testing.T) {
	req, err := ReadRequest(reader("GET /index.html HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Target != "/index.html" || req.Proto != "HTTP/1.1" {
		t.Errorf("parsed %+v", req)
	}
	if v, ok := Get(req.Headers, "host"); !ok || v != "x" {
		t.Errorf("Host header = %q, %v", v, ok)
	}
}

func TestReadRequestBareLF(t *testing.T) {
	req, err := ReadRequest(reader("GET /a HTTP/1.0\nHost: x\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Target != "/a" {
		t.Errorf("Target = %q", req.Target)
	}
}

func TestReadRequestPipelined(t *testing.T) {
	br := reader("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
	r1, err1 := ReadRequest(br)
	r2, err2 := ReadRequest(br)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Target != "/a" || r2.Target != "/b" {
		t.Errorf("pipelined parse: %q, %q", r1.Target, r2.Target)
	}
	if _, err := ReadRequest(br); err != io.EOF {
		t.Errorf("expected io.EOF after stream end, got %v", err)
	}
}

func TestReadRequestMalformed(t *testing.T) {
	bad := []string{
		"\r\n",
		"GET /x\r\n\r\n",
		"GET /x HTTP/2.0\r\n\r\n",
		"GET /x HTTP/1.1 extra\r\n\r\n",
		"GET /x HTTP/1.1\r\nNoColonHeader\r\n\r\n",
		"GET /x HTTP/1.1\r\n: empty name\r\n\r\n",
	}
	for _, s := range bad {
		if _, err := ReadRequest(reader(s)); err == nil {
			t.Errorf("accepted malformed request %q", s)
		}
	}
}

func TestReadRequestTruncated(t *testing.T) {
	_, err := ReadRequest(reader("GET /x HTTP/1.1\r\nHost: x"))
	if err == nil || errors.Is(err, io.EOF) && err == io.EOF {
		t.Errorf("truncated request returned %v, want wrapped error", err)
	}
}

func TestHeaderLimits(t *testing.T) {
	var b strings.Builder
	b.WriteString("GET /x HTTP/1.1\r\n")
	for i := 0; i < MaxHeaders+1; i++ {
		b.WriteString("X-H: v\r\n")
	}
	b.WriteString("\r\n")
	if _, err := ReadRequest(reader(b.String())); !errors.Is(err, ErrHeadersTooLarge) {
		t.Errorf("got %v, want ErrHeadersTooLarge", err)
	}

	long := "GET /" + strings.Repeat("a", MaxLineBytes) + " HTTP/1.1\r\n\r\n"
	if _, err := ReadRequest(reader(long)); !errors.Is(err, ErrLineTooLong) {
		t.Errorf("got %v, want ErrLineTooLong", err)
	}
}

func TestRequestKeepAlive(t *testing.T) {
	cases := []struct {
		proto, conn string
		want        bool
	}{
		{"HTTP/1.1", "", true},
		{"HTTP/1.1", "close", false},
		{"HTTP/1.1", "keep-alive", true},
		{"HTTP/1.0", "", false},
		{"HTTP/1.0", "keep-alive", true},
		{"HTTP/1.0", "close", false},
	}
	for _, c := range cases {
		req := &Request{Method: "GET", Target: "/", Proto: c.proto}
		if c.conn != "" {
			req.Headers = []Header{{Name: "Connection", Value: c.conn}}
		}
		if got := req.KeepAlive(); got != c.want {
			t.Errorf("%s Connection=%q: KeepAlive=%v, want %v", c.proto, c.conn, got, c.want)
		}
	}
}

func TestRequestWriteReadRoundTrip(t *testing.T) {
	req := &Request{
		Method: "GET", Target: "/a/b?q=1", Proto: "HTTP/1.1",
		Headers: []Header{{Name: "Host", Value: "h"}, {Name: "X-Tag", Value: "be2"}},
	}
	var sb strings.Builder
	if _, err := req.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(reader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != req.Method || got.Target != req.Target || got.Proto != req.Proto {
		t.Errorf("round trip %+v", got)
	}
	if len(got.Headers) != 2 || got.Headers[1] != req.Headers[1] {
		t.Errorf("headers %+v", got.Headers)
	}
}

func TestReadResponse(t *testing.T) {
	resp, err := ReadResponse(reader("HTTP/1.1 200 OK\r\nContent-Length: 42\r\nConnection: keep-alive\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.ContentLength != 42 || !resp.KeepAlive() {
		t.Errorf("parsed %+v", resp)
	}
}

func TestReadResponseMalformed(t *testing.T) {
	bad := []string{
		"HTTP/1.1\r\n\r\n",
		"HTTP/9 200 OK\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 99 Low\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
	}
	for _, s := range bad {
		if _, err := ReadResponse(reader(s)); err == nil {
			t.Errorf("accepted malformed response %q", s)
		}
	}
}

func TestResponseHeadParsesBack(t *testing.T) {
	head := ResponseHead("HTTP/1.1", 200, 1234, true)
	resp, err := ReadResponse(reader(head))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.ContentLength != 1234 || !resp.KeepAlive() {
		t.Errorf("parsed %+v", resp)
	}
	head = ResponseHead("HTTP/1.0", 404, 9, false)
	resp, err = ReadResponse(reader(head))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 || resp.KeepAlive() {
		t.Errorf("parsed %+v", resp)
	}
}

func TestStatusText(t *testing.T) {
	for _, code := range []int{200, 400, 404, 500, 502, 503, 777} {
		if StatusText(code) == "" {
			t.Errorf("StatusText(%d) empty", code)
		}
	}
}

// Property: any request with printable token fields survives a
// write/read round trip unchanged.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(pathSeed uint32, nHeaders uint8) bool {
		target := "/p" + strings.Repeat("x", int(pathSeed%64)+1)
		req := &Request{Method: "GET", Target: target, Proto: "HTTP/1.1"}
		for i := 0; i < int(nHeaders%8); i++ {
			req.Headers = append(req.Headers, Header{Name: "X-K", Value: "v"})
		}
		var sb strings.Builder
		if _, err := req.WriteTo(&sb); err != nil {
			return false
		}
		got, err := ReadRequest(reader(sb.String()))
		if err != nil {
			return false
		}
		return got.Target == req.Target && len(got.Headers) == len(req.Headers)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// intoStream is the pipelined stream the ReadRequestInto tests parse: the
// methods, versions, header sets and target lengths vary from one request
// to the next so that slot reuse has something to get wrong.
var intoStream = []string{
	"GET /index.html HTTP/1.1\r\nHost: cluster\r\nConnection: keep-alive\r\n\r\n",
	"GET /index.html HTTP/1.1\r\nHost: cluster\r\nConnection: keep-alive\r\n\r\n",
	"HEAD /a HTTP/1.0\r\n\r\n",
	"GET /a/much/longer/target?with=query HTTP/1.1\r\nHost: other\r\nX-Custom:  padded value \r\nAccept: */*\r\n\r\n",
	"PROPFIND /b HTTP/1.1\nHost: cluster\n\n",
	"GET /index.html HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
	"GET /c HTTP/1.1\r\nHost: cluster\r\nConnection: close\r\n\r\n",
}

// One Request parsed into over and over must read exactly like a fresh
// parse of each message: nothing of the previous occupant may show through.
func TestReadRequestIntoMatchesFreshParse(t *testing.T) {
	for _, withInterner := range []bool{false, true} {
		var in, inFresh *core.Interner
		if withInterner {
			in, inFresh = core.NewInterner(), core.NewInterner()
		}
		stream := strings.Join(intoStream, "")
		br, brFresh := reader(stream), reader(stream)
		var req Request
		for i := range intoStream {
			want, err := ReadRequestInterned(brFresh, inFresh)
			if err != nil {
				t.Fatalf("request %d: fresh parse: %v", i, err)
			}
			if err := ReadRequestInto(br, in, &req); err != nil {
				t.Fatalf("request %d: ReadRequestInto: %v", i, err)
			}
			if req.Method != want.Method || req.Target != want.Target || req.Proto != want.Proto ||
				req.ID != want.ID || req.KeepAlive() != want.KeepAlive() {
				t.Errorf("request %d: reused parse %+v, fresh parse %+v", i, req, *want)
			}
			if len(req.Headers) != len(want.Headers) {
				t.Fatalf("request %d: headers %v, want %v", i, req.Headers, want.Headers)
			}
			for j := range want.Headers {
				if req.Headers[j] != want.Headers[j] {
					t.Errorf("request %d header %d: %+v, want %+v", i, j, req.Headers[j], want.Headers[j])
				}
			}
			if withInterner && in.Name(req.ID) != core.Target(req.Target) {
				t.Errorf("request %d: ID %d names %q, target %q", i, req.ID, in.Name(req.ID), req.Target)
			}
			if !withInterner && req.ID != core.NoTarget {
				t.Errorf("request %d: ID %d without an interner", i, req.ID)
			}
		}
		if err := ReadRequestInto(br, in, &req); err != io.EOF {
			t.Errorf("after the stream: %v, want io.EOF", err)
		}
	}
}

// A rejected head interns nothing: junk must not reach the target table.
func TestReadRequestIntoRejectedInternsNothing(t *testing.T) {
	in := core.NewInterner()
	var req Request
	for _, s := range []string{
		"GET /junk1 HTTP/2.0\r\n\r\n",
		"GET /junk2 HTTP/1.1\r\nNoColon\r\n\r\n",
		"GET /junk3 HTTP/1.1\r\nHost: x\r\n", // truncated
	} {
		if err := ReadRequestInto(reader(s), in, &req); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
	if n := in.Len(); n != 0 {
		t.Errorf("rejected requests interned %d targets", n)
	}
}

// The front-end's parse path in steady state: a known target, the headers
// this slot saw last time. Nothing is allocated.
func TestReadRequestIntoZeroAllocsOnHit(t *testing.T) {
	in := core.NewInterner()
	raw := []byte("GET /docs/page.html HTTP/1.1\r\nHost: cluster\r\nConnection: keep-alive\r\n\r\n")
	rd := bytes.NewReader(raw)
	br := bufio.NewReaderSize(rd, 4096)
	var req Request
	parse := func() {
		rd.Reset(raw)
		br.Reset(rd)
		if err := ReadRequestInto(br, in, &req); err != nil {
			t.Fatal(err)
		}
	}
	parse() // interns the target, fills the slot
	if n := testing.AllocsPerRun(200, parse); n != 0 {
		t.Errorf("ReadRequestInto on an interner hit: %v allocs, want 0", n)
	}
	if req.Target != "/docs/page.html" || !req.KeepAlive() || req.ID == core.NoTarget {
		t.Errorf("parsed %+v", req)
	}
}

// Lines may be longer than the reader's buffer, up to the limit; past the
// limit the parser gives up without reading the rest of the line.
func TestLineLongerThanReaderBuffer(t *testing.T) {
	target := "/" + strings.Repeat("x", 6000) // over a 4 KB buffer, under MaxLineBytes
	msg := "GET " + target + " HTTP/1.1\r\nX-Long: " + strings.Repeat("v", 5000) + "\r\n\r\n"
	req, err := ReadRequest(bufio.NewReaderSize(strings.NewReader(msg), 4096))
	if err != nil {
		t.Fatalf("line within MaxLineBytes rejected: %v", err)
	}
	if req.Target != target || len(req.Headers) != 1 || len(req.Headers[0].Value) != 5000 {
		t.Errorf("long lines parsed wrong: target %d bytes, headers %d", len(req.Target), len(req.Headers))
	}

	endless := &countingReader{r: strings.NewReader("GET /" + strings.Repeat("y", 1<<20))}
	if _, err := ReadRequest(bufio.NewReaderSize(endless, 4096)); !errors.Is(err, ErrLineTooLong) {
		t.Errorf("endless line: %v, want ErrLineTooLong", err)
	}
	if endless.n > 4*MaxLineBytes {
		t.Errorf("read %d bytes of an over-long line before giving up", endless.n)
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func TestAppendResponseHead(t *testing.T) {
	got := string(AppendResponseHead([]byte("x"), "HTTP/1.0", 404, 10, false))
	want := "xHTTP/1.0 404 Not Found\r\nServer: phttp-cluster\r\nContent-Length: 10\r\nConnection: close\r\n\r\n"
	if got != want {
		t.Errorf("AppendResponseHead = %q, want %q", got, want)
	}
	if s := ResponseHead("HTTP/1.1", 200, 1<<40, true); s !=
		"HTTP/1.1 200 OK\r\nServer: phttp-cluster\r\nContent-Length: 1099511627776\r\nConnection: keep-alive\r\n\r\n" {
		t.Errorf("ResponseHead = %q", s)
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendResponseHead(buf[:0], "HTTP/1.1", 200, 123456, true)
	}); n != 0 {
		t.Errorf("AppendResponseHead: %v allocs, want 0", n)
	}
}

func TestRequestAppendToMatchesWriteTo(t *testing.T) {
	req := Request{Method: "GET", Target: "/x?y=1", Proto: "HTTP/1.1",
		Headers: []Header{{"Host", "h"}, {"Connection", "close"}}}
	var sb strings.Builder
	if _, err := req.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	want := "GET /x?y=1 HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"
	if sb.String() != want || string(req.AppendTo(nil)) != want {
		t.Errorf("serialized %q / %q, want %q", sb.String(), req.AppendTo(nil), want)
	}
}

// A request head written into a bytes.Buffer with room for it is appended
// in the buffer's own spare room: no allocation. It made 4 while WriteTo
// serialized into a growing buffer of its own first, and 5 into a buffer
// without room, which now costs only its growth.
func TestRequestWriteToBufferAllocs(t *testing.T) {
	req := Request{Method: "GET", Target: "/doc/000123", Proto: "HTTP/1.1",
		Headers: []Header{{"Host", "cluster"}}}
	want := string(req.AppendTo(nil))
	var buf bytes.Buffer
	buf.Grow(4 << 10)
	if n := testing.AllocsPerRun(200, func() {
		buf.Reset()
		if _, err := req.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteTo into a bytes.Buffer with room: %v allocs, want 0", n)
	}
	if buf.String() != want {
		t.Errorf("WriteTo wrote %q, want %q", buf.String(), want)
	}
	// Into a bytes.Buffer without room, the buffer's growth is the one
	// allocation, and into any other writer one buffer of the head's size.
	fresh := new(bytes.Buffer)
	if n := testing.AllocsPerRun(200, func() {
		*fresh = bytes.Buffer{}
		req.WriteTo(fresh)
	}); n != 1 {
		t.Errorf("WriteTo into an empty bytes.Buffer: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { req.WriteTo(io.Discard) }); n != 1 {
		t.Errorf("WriteTo into io.Discard: %v allocs, want 1", n)
	}
}
