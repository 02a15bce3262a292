// Package httpmsg implements the minimal HTTP/1.0 and HTTP/1.1 message
// handling the prototype cluster needs: request and response parsing and
// serialization with persistent-connection (keep-alive) semantics and
// pipelining support.
//
// The prototype's data path deliberately avoids net/http: the front-end's
// forwarding module and the back-end's handed-off connections manipulate
// raw sockets (including file descriptors received over UNIX domain
// sockets), and the paper's servers speak exactly this subset. Responses
// always carry Content-Length (no chunked encoding), which is what 1998-era
// servers produced for static content.
package httpmsg

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"phttp/internal/core"
)

// Limits protect the parsers from malformed or hostile input.
const (
	// MaxLineBytes bounds a request/status/header line.
	MaxLineBytes = 8 << 10
	// MaxHeaderBytes bounds the total header section.
	MaxHeaderBytes = 64 << 10
	// MaxHeaders bounds the number of header fields.
	MaxHeaders = 128
)

// Errors returned by the parsers.
var (
	// ErrLineTooLong reports a request or header line over MaxLineBytes.
	ErrLineTooLong = errors.New("httpmsg: line too long")
	// ErrHeadersTooLarge reports a header section over the limits.
	ErrHeadersTooLarge = errors.New("httpmsg: header section too large")
	// ErrMalformed reports a syntactically invalid message.
	ErrMalformed = errors.New("httpmsg: malformed message")
)

// Header is one header field; order is preserved across parse/serialize.
type Header struct {
	Name  string
	Value string
}

// Request is a parsed HTTP request.
type Request struct {
	Method string
	Target string // origin-form request target (path + optional query)
	// ID is the interned form of Target, set when the request was parsed
	// through ReadRequestInterned; NoTarget after a plain ReadRequest.
	// Carrying the dense ID out of the parser lets the prototype
	// front-end dispatch on IDs exactly like the simulator, with no
	// per-request target hashing downstream of the parse.
	ID      core.TargetID
	Proto   string // "HTTP/1.0" or "HTTP/1.1"
	Headers []Header

	// Parse scratch kept across ReadRequestInto calls: the target bytes
	// awaiting interning, and the spill buffer of a line longer than the
	// reader's own.
	target []byte
	spill  []byte
}

// Response is a parsed HTTP response header; the body (ContentLength bytes)
// remains on the reader for the caller to consume.
type Response struct {
	Proto         string
	Status        int
	Reason        string
	Headers       []Header
	ContentLength int64
}

// readLineSlice reads one CRLF- (or LF-) terminated line within
// MaxLineBytes and returns it without its terminator. The slice aliases the
// reader's buffer — or *spill, when the line outgrew that buffer — and is
// only valid until the next read from br.
func readLineSlice(br *bufio.Reader, spill *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// The line is longer than the reader's buffer (a 4 KB default
		// reader against the 8 KB limit): collect it in the spill buffer,
		// giving up as soon as the limit is passed rather than after
		// reading an unbounded line.
		buf := (*spill)[:0]
		for err == bufio.ErrBufferFull {
			buf = append(buf, line...)
			if len(buf) > MaxLineBytes {
				*spill = buf
				return nil, ErrLineTooLong
			}
			line, err = br.ReadSlice('\n')
		}
		buf = append(buf, line...)
		*spill = buf
		line = buf
	}
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			return nil, fmt.Errorf("%w: truncated line", ErrMalformed)
		}
		return nil, err
	}
	if len(line) > MaxLineBytes {
		return nil, ErrLineTooLong
	}
	for n := len(line); n > 0 && (line[n-1] == '\n' || line[n-1] == '\r'); n-- {
		line = line[:n-1]
	}
	return line, nil
}

// readHeadersInto parses header fields up to the blank line into hs[:0],
// reusing the slice's storage — including the strings of the previous
// parse: a field whose name or value repeats what the same slot held last
// time (the common case on a recycled connection record: same client
// software, same Host) takes the old string instead of allocating a new
// one. The result holds ordinary immutable strings either way.
func readHeadersInto(br *bufio.Reader, hs []Header, spill *[]byte) ([]Header, error) {
	prev := hs[:cap(hs)]
	hs = hs[:0]
	total := 0
	for {
		line, err := readLineSlice(br, spill)
		if err != nil {
			return hs, err
		}
		if len(line) == 0 {
			return hs, nil
		}
		total += len(line)
		if total > MaxHeaderBytes || len(hs) >= MaxHeaders {
			return hs, ErrHeadersTooLarge
		}
		colon := bytes.IndexByte(line, ':')
		var name []byte
		if colon >= 0 {
			name = bytes.TrimSpace(line[:colon])
		}
		// The trimmed name must be non-empty, or the field would not
		// survive a serialize/reparse round trip (" : v" is not a header).
		if len(name) == 0 {
			return hs, fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		value := bytes.TrimSpace(line[colon+1:])
		var h Header
		if i := len(hs); i < len(prev) {
			h = prev[i]
		}
		if h.Name != string(name) {
			h.Name = headerName(name)
		}
		if h.Value != string(value) {
			h.Value = string(value)
		}
		hs = append(hs, h)
	}
}

// headerName returns the field name as a string, without allocating for
// the names the cluster's own clients and servers send.
func headerName(b []byte) string {
	switch string(b) {
	case "Host":
		return "Host"
	case "Connection":
		return "Connection"
	case "Content-Length":
		return "Content-Length"
	case "Server":
		return "Server"
	case "User-Agent":
		return "User-Agent"
	case "Accept":
		return "Accept"
	}
	return string(b)
}

// Get returns the first value of the named header (case-insensitive) and
// whether it was present.
func Get(hs []Header, name string) (string, bool) {
	for _, h := range hs {
		if strings.EqualFold(h.Name, name) {
			return h.Value, true
		}
	}
	return "", false
}

// ReadRequest parses one request head (no body; GET/HEAD only need none).
// io.EOF is returned untouched when the connection closed cleanly between
// requests, so callers can distinguish shutdown from corruption.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	return ReadRequestInterned(br, nil)
}

// ReadRequestInterned parses one request head like ReadRequest and interns
// the target, stamping the dense TargetID onto the returned request. It is
// ReadRequestInto over a fresh Request, for callers that keep the result.
func ReadRequestInterned(br *bufio.Reader, in *core.Interner) (*Request, error) {
	req := new(Request)
	if err := ReadRequestInto(br, in, req); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadRequestInto parses one request head into req, overwriting it and
// reusing its storage — the prototype front-end's parse path, which keeps
// one Request per pipeline slot for the life of a connection record. With a
// non-nil interner the target is interned straight from the read buffer and
// req.ID is set (everything downstream of the parser — dispatch, policies,
// mapping tables — works on integer IDs); req.Target is then the interner's
// canonical string, so a known target costs no allocation. A full capped
// interner answers a new target with NoTarget; req.Target is then the raw
// target, as without an interner. After an error req holds no meaningful
// request and nothing was interned. Errors are those of ReadRequest.
//
//phttp:hotpath
func ReadRequestInto(br *bufio.Reader, in *core.Interner, req *Request) error {
	line, err := readLineSlice(br, &req.spill)
	if err != nil {
		return err
	}
	// Exactly two spaces: method, target and protocol are all non-empty
	// and space-free.
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := bytes.LastIndexByte(line, ' ')
	if sp1 <= 0 || sp2 <= sp1+1 || bytes.IndexByte(line[sp1+1:sp2], ' ') >= 0 {
		return malformedLine("request line", line)
	}
	proto := protoName(line[sp2+1:])
	if proto == "" {
		return malformedLine("protocol", line[sp2+1:])
	}
	if method := line[:sp1]; req.Method != string(method) {
		req.Method = methodName(method)
	}
	req.Proto = proto
	req.ID = core.NoTarget
	// The target is interned only once the whole head has parsed, and the
	// header reads invalidate line: keep a copy in the request's scratch.
	req.target = append(req.target[:0], line[sp1+1:sp2]...)
	if req.Headers, err = readHeadersInto(br, req.Headers, &req.spill); err != nil {
		return err
	}
	if in != nil {
		req.ID = in.InternBytes(req.target)
	}
	if req.ID != core.NoTarget {
		req.Target = string(in.Name(req.ID))
	} else if req.Target != string(req.target) {
		req.Target = string(req.target)
	}
	return nil
}

// malformedLine is the cold formatting helper of the annotated parse path.
func malformedLine(what string, b []byte) error {
	return fmt.Errorf("%w: %s %q", ErrMalformed, what, b)
}

// protoName returns the constant for a supported protocol version, or "".
func protoName(b []byte) string {
	switch string(b) {
	case "HTTP/1.1":
		return "HTTP/1.1"
	case "HTTP/1.0":
		return "HTTP/1.0"
	}
	return ""
}

// methodName returns the method as a string, a constant for the methods
// clients actually send.
func methodName(b []byte) string {
	switch string(b) {
	case "GET":
		return "GET"
	case "HEAD":
		return "HEAD"
	case "POST":
		return "POST"
	}
	return string(b)
}

// KeepAlive reports whether the connection persists after this request:
// HTTP/1.1 defaults to persistent unless "Connection: close"; HTTP/1.0
// requires an explicit "Connection: keep-alive".
func (r *Request) KeepAlive() bool {
	v, ok := Get(r.Headers, "Connection")
	if r.Proto == "HTTP/1.1" {
		return !ok || !strings.EqualFold(v, "close")
	}
	return ok && strings.EqualFold(v, "keep-alive")
}

// AppendTo appends the serialized request head to dst.
func (r *Request) AppendTo(dst []byte) []byte {
	dst = append(dst, r.Method...)
	dst = append(dst, ' ')
	dst = append(dst, r.Target...)
	dst = append(dst, ' ')
	dst = append(dst, r.Proto...)
	dst = append(dst, "\r\n"...)
	for _, h := range r.Headers {
		dst = append(dst, h.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, h.Value...)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// WriteTo serializes the request head.
func (r *Request) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(r.AppendTo(nil))
	return int64(n), err
}

// ReadResponse parses one response head. The body (ContentLength bytes) is
// left on br for the caller.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	var spill []byte
	raw, err := readLineSlice(br, &spill)
	if err != nil {
		return nil, err
	}
	proto, rest, ok := strings.Cut(string(raw), " ")
	if !ok || (proto != "HTTP/1.0" && proto != "HTTP/1.1") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, raw)
	}
	codeStr, reason, _ := strings.Cut(rest, " ")
	code, err := strconv.Atoi(codeStr)
	if err != nil || code < 100 || code > 599 {
		return nil, fmt.Errorf("%w: status code %q", ErrMalformed, codeStr)
	}
	resp := &Response{Proto: proto, Status: code, Reason: reason}
	resp.Headers, err = readHeadersInto(br, nil, &spill)
	if err != nil {
		return nil, err
	}
	if v, ok := Get(resp.Headers, "Content-Length"); ok {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: Content-Length %q", ErrMalformed, v)
		}
		resp.ContentLength = n
	}
	return resp, nil
}

// KeepAlive reports whether the connection persists after this response.
func (r *Response) KeepAlive() bool {
	v, ok := Get(r.Headers, "Connection")
	if r.Proto == "HTTP/1.1" {
		return !ok || !strings.EqualFold(v, "close")
	}
	return ok && strings.EqualFold(v, "keep-alive")
}

// AppendResponseHead appends a response head with the given status,
// Content-Length and keep-alive disposition to dst; proto should echo the
// request's protocol version.
//
//phttp:hotpath
func AppendResponseHead(dst []byte, proto string, status int, contentLength int64, keepAlive bool) []byte {
	dst = append(dst, proto...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	dst = append(dst, StatusText(status)...)
	dst = append(dst, "\r\nServer: phttp-cluster\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, contentLength, 10)
	if keepAlive {
		return append(dst, "\r\nConnection: keep-alive\r\n\r\n"...)
	}
	return append(dst, "\r\nConnection: close\r\n\r\n"...)
}

// ResponseHead is AppendResponseHead into a fresh string.
func ResponseHead(proto string, status int, contentLength int64, keepAlive bool) string {
	var buf [128]byte // no head the cluster produces is longer
	return string(AppendResponseHead(buf[:0], proto, status, contentLength, keepAlive))
}

// StatusText returns the canonical reason phrase for the status codes the
// cluster produces.
func StatusText(status int) string {
	switch status {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}
