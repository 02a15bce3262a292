package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/httpmsg"
)

// The benchmark's own closed-loop client. It is deliberately independent of
// internal/loadgen and of httpmsg's response parser: the client's cost must
// stay the same when a later change optimises the program, or the shared
// process would credit the program with the client's gain.

// clients is the number of closed-loop client goroutines, one connection
// each at a time. Sixteen keep both of this box's processors busy on every
// workload (more clients add latency, not throughput). With two, the
// processors idle four fifths of the time and the result is set by how soon
// the runtime's timers and poller wake an idle thread: the median latency of
// one workload read 375 us on one run and 1061 us on the next.
const clients = 16

// probeLen is how many leading body bytes are compared with the catalog's
// deterministic content.
const probeLen = 16

// reqPlan is one request with everything needed to verify its response.
type reqPlan struct {
	target core.Target
	size   int64
	probe  [probeLen]byte
}

// batchPlan is one pipelined batch: its requests serialised back to back,
// written in a single write.
type batchPlan struct {
	wire []byte
	reqs []reqPlan
}

// connPlan is one trace connection prepared for replay.
type connPlan struct {
	batches  []batchPlan
	requests int
}

func protoName(http10 bool) string {
	if http10 {
		return "HTTP/1.0"
	}
	return "HTTP/1.1"
}

// writeRequest serialises one GET the way every client of this benchmark
// sends it.
func writeRequest(w *bytes.Buffer, t core.Target, proto string) {
	req := httpmsg.Request{
		Method: "GET", Target: string(t), Proto: proto,
		Headers: []httpmsg.Header{{Name: "Host", Value: "cluster"}},
	}
	req.WriteTo(w) // a bytes.Buffer write cannot fail
}

// buildPlans serialises every connection of the trace once, during set-up,
// so the measured window holds no request formatting.
func buildPlans(conns []core.Connection, http10 bool) []connPlan {
	proto := protoName(http10)
	plans := make([]connPlan, len(conns))
	for i, c := range conns {
		p := connPlan{requests: c.Requests()}
		for _, b := range c.Batches {
			var wire bytes.Buffer
			bp := batchPlan{reqs: make([]reqPlan, len(b))}
			for j, r := range b {
				writeRequest(&wire, r.Target, proto)
				rp := reqPlan{target: r.Target, size: r.Size}
				for k := range rp.probe {
					rp.probe[k] = cluster.ContentByte(r.Target, int64(k))
				}
				bp.reqs[j] = rp
			}
			bp.wire = wire.Bytes()
			p.batches = append(p.batches, bp)
		}
		plans[i] = p
	}
	return plans
}

// spanKind names a client span. A connection's spans share its id: root
// conn, child connect, and per batch send (the write), ttfb (write done to
// first response byte) and recv (first byte to last body byte).
type spanKind uint8

const (
	spanConn spanKind = iota
	spanConnect
	spanSend
	spanTTFB
	spanRecv
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"conn", "connect", "send", "ttfb", "recv"}

// span is one in-memory trace record; times are nanoseconds since the
// client's epoch.
type span struct {
	conn       int64
	batch      int32 // -1 for conn and connect
	kind       spanKind
	start, end int64
}

// clientConfig is what the client knows: an address and prepared
// connections. It never sees the generator configuration.
type clientConfig struct {
	addr  string
	plans []connPlan
	// tamper, when set, edits the probed body bytes before they are
	// verified. Tests use it to show that a corrupted response fails the
	// run; nothing else sets it.
	tamper func(probe []byte)
}

// blockResult is what one block of connections produced.
type blockResult struct {
	lats      []int64 // per-request latency, ns: batch write start to last body byte
	spans     []span  // only when tracing
	attempted int64   // requests the block's connections hold
	failed    int64   // requests not answered or not verified
	bytes     int64   // verified body bytes
	firstErr  error
}

// clientWorker is one closed-loop client goroutine's reusable state.
type clientWorker struct {
	cfg   *clientConfig
	br    *bufio.Reader
	epoch time.Time
	res   blockResult
}

// client drives blocks of connections through clients goroutines.
type client struct {
	cfg     clientConfig
	workers []*clientWorker
}

func newClient(cfg clientConfig) *client {
	c := &client{cfg: cfg}
	epoch := time.Now()
	for i := 0; i < clients; i++ {
		c.workers = append(c.workers, &clientWorker{cfg: &c.cfg, br: bufio.NewReaderSize(nil, 64<<10), epoch: epoch})
	}
	return c
}

// runBlock replays connections [from, from+n) of the plan sequence (cycled)
// and returns once all have completed. Each client opens its next
// connection only when its previous one is done: a closed loop.
func (c *client) runBlock(from, n int, tracing bool) blockResult {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range c.workers {
		w.res = blockResult{lats: w.res.lats[:0], spans: w.res.spans[:0]}
		wg.Add(1)
		go func(w *clientWorker) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				id := from + i
				w.driveConn(int64(id), &w.cfg.plans[id%len(w.cfg.plans)], tracing)
			}
		}(w)
	}
	wg.Wait()
	var out blockResult
	for _, w := range c.workers {
		out.lats = append(out.lats, w.res.lats...)
		out.spans = append(out.spans, w.res.spans...)
		out.attempted += w.res.attempted
		out.failed += w.res.failed
		out.bytes += w.res.bytes
		if out.firstErr == nil {
			out.firstErr = w.res.firstErr
		}
	}
	return out
}

func (w *clientWorker) since(t time.Time) int64 { return t.Sub(w.epoch).Nanoseconds() }

// driveConn replays one connection: per batch, write every request in one
// write, then read and verify every response in order.
func (w *clientWorker) driveConn(id int64, p *connPlan, tracing bool) {
	w.res.attempted += int64(p.requests)
	answered, err := w.replay(id, p, tracing)
	if err != nil {
		w.res.failed += int64(p.requests - answered)
		if w.res.firstErr == nil {
			w.res.firstErr = fmt.Errorf("connection %d: %w", id, err)
		}
	}
}

func (w *clientWorker) replay(id int64, p *connPlan, tracing bool) (answered int, err error) {
	t0 := time.Now()
	conn, err := net.Dial("tcp", w.cfg.addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if tracing {
		w.res.spans = append(w.res.spans, span{conn: id, batch: -1, kind: spanConnect, start: w.since(t0), end: w.since(time.Now())})
		defer func() {
			w.res.spans = append(w.res.spans, span{conn: id, batch: -1, kind: spanConn, start: w.since(t0), end: w.since(time.Now())})
		}()
	}
	if err := conn.SetDeadline(t0.Add(30 * time.Second)); err != nil {
		return 0, err
	}
	w.br.Reset(conn)
	for bi := range p.batches {
		b := &p.batches[bi]
		sent := time.Now()
		if _, err := conn.Write(b.wire); err != nil {
			return answered, err
		}
		var first time.Time
		if tracing {
			wrote := time.Now()
			if _, err := w.br.Peek(1); err != nil {
				return answered, err
			}
			first = time.Now()
			w.res.spans = append(w.res.spans,
				span{conn: id, batch: int32(bi), kind: spanSend, start: w.since(sent), end: w.since(wrote)},
				span{conn: id, batch: int32(bi), kind: spanTTFB, start: w.since(wrote), end: w.since(first)})
		}
		if err := w.readBatch(b, sent, &answered); err != nil {
			return answered, err
		}
		if tracing {
			w.res.spans = append(w.res.spans, span{conn: id, batch: int32(bi), kind: spanRecv, start: w.since(first), end: w.since(time.Now())})
		}
	}
	return answered, nil
}

// readBatch reads the batch's responses in order, recording each request's
// latency from the batch's write.
func (w *clientWorker) readBatch(b *batchPlan, sent time.Time, answered *int) error {
	for ri := range b.reqs {
		if err := w.readResponse(&b.reqs[ri]); err != nil {
			return err
		}
		w.res.lats = append(w.res.lats, time.Since(sent).Nanoseconds())
		w.res.bytes += b.reqs[ri].size
		*answered++
	}
	return nil
}

var (
	errStatus  = errors.New("status is not 200")
	errLength  = errors.New("Content-Length differs from the catalog size")
	errContent = errors.New("body differs from the catalog content")
	errHead    = errors.New("malformed response head")
)

// readResponse parses one response head without allocating, verifies status,
// length and the leading body bytes against the plan, and discards the rest
// of the body.
func (w *clientWorker) readResponse(r *reqPlan) error {
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	// "HTTP/1.x 200 ..."
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return errHead
	}
	var status [3]byte
	copy(status[:], line[9:12])
	length := int64(-1)
	for {
		line, err = w.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(line) <= 2 { // "\r\n"
			break
		}
		const name = "content-length:"
		if len(line) > len(name) && bytes.EqualFold(line[:len(name)], []byte(name)) {
			length = 0
			for _, ch := range bytes.TrimSpace(line[len(name):]) {
				if ch < '0' || ch > '9' {
					return errHead
				}
				length = length*10 + int64(ch-'0')
			}
		}
	}
	if length < 0 {
		return errHead
	}
	if status != [3]byte{'2', '0', '0'} {
		return fmt.Errorf("%q: %w (%s)", r.target, errStatus, status[:])
	}
	if length != r.size {
		return fmt.Errorf("%q: %w (%d, want %d)", r.target, errLength, length, r.size)
	}
	n := int(min(length, probeLen))
	head, err := w.br.Peek(n)
	if err != nil {
		return err
	}
	var got [probeLen]byte
	copy(got[:], head)
	if w.cfg.tamper != nil {
		w.cfg.tamper(got[:n])
	}
	if !bytes.Equal(got[:n], r.probe[:n]) {
		return fmt.Errorf("%q: %w", r.target, errContent)
	}
	_, err = w.br.Discard(int(length))
	return err
}
