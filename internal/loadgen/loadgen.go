// Package loadgen is the event-driven HTTP client driver of the prototype
// evaluation: it simulates many concurrent HTTP clients replaying a trace
// against the cluster front-end as fast as the server can handle them
// (Section 8.1), with HTTP/1.1 persistent connections and pipelining or
// plain HTTP/1.0, and measures delivered throughput.
package loadgen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/httpmsg"
	"phttp/internal/trace"
)

// Config parameterizes one load-generation run.
type Config struct {
	// Addr is the front-end's client address.
	Addr string
	// Trace is the workload; each trace connection is replayed on its own
	// TCP connection.
	Trace *trace.Trace
	// HTTP10 flattens the trace to one request per connection and speaks
	// HTTP/1.0.
	HTTP10 bool
	// Concurrency is the number of simulated clients (each drives one
	// connection at a time, opening the next as soon as one completes).
	Concurrency int
	// WarmupFrac is the fraction of connections excluded from the
	// throughput measurement while caches warm.
	WarmupFrac float64
	// Verify checks response sizes against the catalog and spot-checks
	// body bytes.
	Verify bool
	// IOTimeout bounds each network operation.
	IOTimeout time.Duration
}

// Result is the measured outcome.
type Result struct {
	Requests int64
	Bytes    int64
	Errors   int64
	// Elapsed, Throughput and BandwidthMbps describe the post-warmup
	// measurement window.
	Elapsed       time.Duration
	Throughput    float64
	BandwidthMbps float64
}

func (r Result) String() string {
	return fmt.Sprintf("%d requests, %.1f req/s, %.1f Mb/s, %d errors",
		r.Requests, r.Throughput, r.BandwidthMbps, r.Errors)
}

// runState is shared across client workers.
type runState struct {
	cfg   Config
	conns []core.Connection

	next      atomic.Int64
	done      atomic.Int64
	requests  atomic.Int64
	bytes     atomic.Int64
	errors    atomic.Int64
	warmConns int64

	markOnce  sync.Once
	markTime  time.Time
	markReqs  int64
	markBytes int64
}

// Run replays the trace and returns the measurement. An error is returned
// only for setup problems; per-request failures are counted in
// Result.Errors.
func Run(cfg Config) (Result, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 32
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 30 * time.Second
	}
	workload := cfg.Trace
	if cfg.HTTP10 {
		workload = workload.Flatten10()
	}
	if len(workload.Conns) == 0 {
		return Result{}, fmt.Errorf("loadgen: empty trace")
	}
	st := &runState{
		cfg:       cfg,
		conns:     workload.Conns,
		warmConns: int64(cfg.WarmupFrac * float64(len(workload.Conns))),
	}
	st.markTime = time.Now() // in case warmup is zero-sized

	var wg sync.WaitGroup
	for i := 0; i < cfg.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.worker()
		}()
	}
	wg.Wait()

	res := Result{
		Requests: st.requests.Load(),
		Bytes:    st.bytes.Load(),
		Errors:   st.errors.Load(),
	}
	res.Elapsed = time.Since(st.markTime)
	measured := res.Requests - st.markReqs
	if res.Elapsed > 0 && measured > 0 {
		res.Throughput = float64(measured) / res.Elapsed.Seconds()
		res.BandwidthMbps = float64(res.Bytes-st.markBytes) * 8 / 1e6 / res.Elapsed.Seconds()
	}
	return res, nil
}

// worker drives connections until the trace is exhausted.
func (st *runState) worker() {
	for {
		i := st.next.Add(1) - 1
		if i >= int64(len(st.conns)) {
			return
		}
		if err := st.driveConn(st.conns[i]); err != nil {
			st.errors.Add(1)
		}
		d := st.done.Add(1)
		if d == st.warmConns {
			st.markOnce.Do(func() {
				st.markTime = time.Now()
				st.markReqs = st.requests.Load()
				st.markBytes = st.bytes.Load()
			})
		}
	}
}

// driveConn replays one trace connection: per batch, pipeline all requests
// in a single write, then read all responses in order.
func (st *runState) driveConn(c core.Connection) error {
	if c.Requests() == 0 {
		return nil
	}
	conn, err := net.Dial("tcp", st.cfg.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)

	proto := "HTTP/1.1"
	if st.cfg.HTTP10 {
		proto = "HTTP/1.0"
	}
	var wire bytes.Buffer
	for _, batch := range c.Batches {
		// Pipelining: the whole batch goes out in one write.
		wire.Reset()
		for _, r := range batch {
			req := httpmsg.Request{
				Method: "GET", Target: string(r.Target), Proto: proto,
				Headers: []httpmsg.Header{{Name: "Host", Value: "cluster"}},
			}
			req.WriteTo(&wire)
		}
		conn.SetWriteDeadline(time.Now().Add(st.cfg.IOTimeout))
		if _, err := conn.Write(wire.Bytes()); err != nil {
			return err
		}
		for _, r := range batch {
			conn.SetReadDeadline(time.Now().Add(st.cfg.IOTimeout))
			resp, err := httpmsg.ReadResponse(br)
			if err != nil {
				return err
			}
			if err := st.consumeBody(br, r, resp); err != nil {
				return err
			}
			st.requests.Add(1)
			st.bytes.Add(resp.ContentLength)
		}
	}
	return nil
}

// consumeBody reads and (optionally) verifies one response body.
func (st *runState) consumeBody(br *bufio.Reader, r core.Request, resp *httpmsg.Response) error {
	n := resp.ContentLength
	if !st.cfg.Verify {
		_, err := io.CopyN(io.Discard, br, n)
		return err
	}
	if resp.Status != 200 {
		io.CopyN(io.Discard, br, n)
		return fmt.Errorf("loadgen: %q: status %d", r.Target, resp.Status)
	}
	if n != r.Size {
		io.CopyN(io.Discard, br, n)
		return fmt.Errorf("loadgen: %q: got %d bytes, want %d", r.Target, n, r.Size)
	}
	// Spot-check the first bytes against the deterministic content.
	probe := int64(16)
	if n < probe {
		probe = n
	}
	buf := make([]byte, probe)
	if _, err := io.ReadFull(br, buf); err != nil {
		return err
	}
	for i, b := range buf {
		if b != cluster.ContentByte(r.Target, int64(i)) {
			return fmt.Errorf("loadgen: %q: corrupt body at offset %d", r.Target, i)
		}
	}
	_, err := io.CopyN(io.Discard, br, n-probe)
	return err
}
