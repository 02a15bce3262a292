package httpmsg

import (
	"bufio"
	"bytes"
	"testing"

	"phttp/internal/core"
)

// Native Go fuzz targets for the HTTP/1.x parsers. The prototype's
// front-end feeds ReadRequest bytes straight off client sockets, so the
// parser must never panic and every accepted message must survive a
// serialize/reparse round trip (the forwarding module re-emits request
// heads). CI runs each target for a short -fuzztime smoke on every push;
// the seed corpus below keeps the coverage-guided search anchored on real
// protocol shapes.

func requestSeeds(f *testing.F) {
	for _, s := range []string{
		"GET /index.html HTTP/1.0\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: example.com\r\nConnection: keep-alive\r\n\r\n",
		"GET /a?q=1&x=%20 HTTP/1.1\r\nHost: h\r\n\r\n",
		"HEAD /doc HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
		"GET /pipelined1 HTTP/1.1\r\n\r\nGET /pipelined2 HTTP/1.1\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
		"GET /lf-only HTTP/1.0\n\n",
		"GET /x HTTP/2.0\r\n\r\n",
		"GET  /two-spaces HTTP/1.0\r\n\r\n",
		"GET /x HTTP/1.0\r\nBad Header\r\n\r\n",
		"GET /x HTTP/1.0\r\n: empty-name\r\n\r\n",
		"GET /x HTTP/1.0\r\nA: b\r\nA: c\r\n\r\n",
		"\r\n\r\n",
		"GET /truncated HTTP/1.1\r\nHost",
	} {
		f.Add([]byte(s))
	}
}

func FuzzReadRequest(f *testing.F) {
	requestSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return // rejected input; only accepted messages owe invariants
		}
		if req.Method == "" || req.Target == "" {
			t.Fatalf("accepted request with empty method/target: %+v", req)
		}
		if req.Proto != "HTTP/1.0" && req.Proto != "HTTP/1.1" {
			t.Fatalf("accepted protocol %q", req.Proto)
		}
		req.KeepAlive() // must not panic on any accepted header set

		// Round trip: the forwarding path re-serializes request heads, so
		// an accepted head must reparse to the same message.
		var buf bytes.Buffer
		if _, err := req.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		back, err := ReadRequest(bufio.NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("accepted request does not reparse: %v\nserialized: %q", err, buf.Bytes())
		}
		if back.Method != req.Method || back.Target != req.Target || back.Proto != req.Proto {
			t.Fatalf("round trip changed request line: %+v -> %+v", req, back)
		}
		if len(back.Headers) != len(req.Headers) {
			t.Fatalf("round trip changed header count: %v -> %v", req.Headers, back.Headers)
		}
		for i := range req.Headers {
			if back.Headers[i] != req.Headers[i] {
				t.Fatalf("round trip changed header %d: %+v -> %+v", i, req.Headers[i], back.Headers[i])
			}
		}
	})
}

func FuzzReadRequestInterned(f *testing.F) {
	requestSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, plainErr := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		in := core.NewInterner()
		interned, err := ReadRequestInterned(bufio.NewReader(bytes.NewReader(data)), in)
		if (err == nil) != (plainErr == nil) {
			t.Fatalf("interned parse disagreed with plain parse: %v vs %v", err, plainErr)
		}
		if err != nil {
			return
		}
		if interned.Target != plain.Target {
			t.Fatalf("interned parse changed target: %q vs %q", interned.Target, plain.Target)
		}
		if interned.ID == core.NoTarget {
			t.Fatal("interned parse left ID unset")
		}
		if got := in.Name(interned.ID); got != core.Target(interned.Target) {
			t.Fatalf("interner maps ID %d to %q, target is %q", interned.ID, got, interned.Target)
		}
		// A full cap-1 interner resolves its one target and turns every
		// other away: the raw target survives either way, and the ID is
		// NoTarget exactly when the target is new.
		full := core.NewCappedInterner(1)
		known := full.Intern("/index.html")
		r2, err := ReadRequestInterned(bufio.NewReader(bytes.NewReader(data)), full)
		if err != nil {
			t.Fatalf("capped interner changed parse outcome: %v", err)
		}
		if r2.Target != plain.Target {
			t.Fatalf("full interner changed target: %q vs %q", r2.Target, plain.Target)
		}
		if isNew := plain.Target != "/index.html"; (r2.ID == core.NoTarget) != isNew || (!isNew && r2.ID != known) {
			t.Fatalf("full interner gave %q ID %d (new target: %v)", r2.Target, r2.ID, isNew)
		}
		if full.Len() != 1 {
			t.Fatalf("full interner grew to %d targets", full.Len())
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	for _, s := range []string{
		"HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\n0123456789",
		"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
		"HTTP/1.1 200 OK\r\nServer: phttp-cluster\r\nContent-Length: 8192\r\nConnection: keep-alive\r\n\r\n",
		"HTTP/1.1 200\r\n\r\n",
		"HTTP/1.1 999 Weird\r\n\r\n",
		"HTTP/1.1 20x Bad\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: -5\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n",
		"ICY 200 OK\r\n\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if resp.Proto != "HTTP/1.0" && resp.Proto != "HTTP/1.1" {
			t.Fatalf("accepted protocol %q", resp.Proto)
		}
		if resp.Status < 100 || resp.Status > 599 {
			t.Fatalf("accepted status %d", resp.Status)
		}
		if resp.ContentLength < 0 {
			t.Fatalf("accepted negative Content-Length %d", resp.ContentLength)
		}
		resp.KeepAlive() // must not panic on any accepted header set
	})
}
