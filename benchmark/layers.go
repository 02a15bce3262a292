package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"time"

	"phttp/internal/cache"
	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/httpmsg"
	"phttp/internal/server"
	"phttp/internal/simcore"
)

// The layer replay pushes a workload's exact request stream through each
// layer's public API in isolation, on one goroutine, and times it from
// outside. Layers are this repository's packages; the spans are recorded
// here, around the calls into each layer, because spans inside the program
// are a later change.

// layerBlockOps is the number of operations under one layer span.
const layerBlockOps = 1000

// layerInput is a workload's request stream in the forms the layers take.
type layerInput struct {
	conns   []core.Connection // as replayed: flattened for HTTP/1.0 workloads
	reqs    []core.Request    // the same requests in order, IDs from the trace's interner
	catalog map[core.Target]int64
	wire    []byte // every request's serialised head, back to back
	bytes   int64  // sum of response sizes
	spec    dispatch.Spec
}

func newLayerInput(conns []core.Connection, catalog map[core.Target]int64, http10 bool, spec dispatch.Spec) layerInput {
	in := layerInput{conns: conns, catalog: catalog, spec: spec}
	proto := protoName(http10)
	var wire bytes.Buffer
	for _, c := range conns {
		for _, b := range c.Batches {
			for _, r := range b {
				in.reqs = append(in.reqs, r)
				in.bytes += r.Size
				writeRequest(&wire, r.Target, proto)
			}
		}
	}
	in.wire = wire.Bytes()
	return in
}

// layerSpan is one timed block of a layer replay.
type layerSpan struct {
	layer      string
	start, end int64 // ns since the replay's epoch
	units      int64
}

// layerTiming is what timing one layer produced.
type layerTiming struct {
	nsPerUnit     float64 // median over blocks
	allocsPerUnit float64 // whole replay
	units         int64
}

// layerReplay holds the replay's results and spans.
type layerReplay struct {
	epoch  time.Time
	slice  time.Duration // time given to each layer
	spans  []layerSpan
	timing map[string]layerTiming
	counts map[string]float64 // counts and ratios observed while replaying
	err    error              // first failure of a layer's own check
}

func (lr *layerReplay) fail(layer string, err error) {
	if lr.err == nil {
		lr.err = fmt.Errorf("layer %s: %w", layer, err)
	}
}

// measure runs block repeatedly for the layer's time slice. block performs
// about n operations and returns the units of work done (operations, or
// bytes for the content writer); each call is one span.
func (lr *layerReplay) measure(layer string, blockOps int, block func(n int) int64) {
	var perUnit []float64
	var units int64
	m0 := mallocs()
	start := time.Now()
	for len(perUnit) < 3 || time.Since(start) < lr.slice {
		t0 := time.Now()
		u := block(blockOps)
		t1 := time.Now()
		if u <= 0 || lr.err != nil {
			break
		}
		lr.spans = append(lr.spans, layerSpan{layer, t0.Sub(lr.epoch).Nanoseconds(), t1.Sub(lr.epoch).Nanoseconds(), u})
		perUnit = append(perUnit, float64(t1.Sub(t0).Nanoseconds())/float64(u))
		units += u
	}
	t := layerTiming{nsPerUnit: median(perUnit), units: units}
	if units > 0 {
		t.allocsPerUnit = float64(mallocs()-m0) / float64(units)
	}
	lr.timing[layer] = t
}

// sink keeps the compiler from discarding a replayed call's result.
var sink any

// replayLayers times every layer on the input. total is the time for all
// layers together.
func replayLayers(in layerInput, total time.Duration) *layerReplay {
	// Eleven layers share the time; the twelfth share is left for the
	// simulator grid the caller runs afterwards.
	const layers = 12
	lr := &layerReplay{
		epoch:  time.Now(),
		slice:  total / layers,
		timing: map[string]layerTiming{},
		counts: map[string]float64{},
	}
	next := func(i *int) core.Request { // cycles the request stream
		r := in.reqs[*i]
		if *i++; *i == len(in.reqs) {
			*i = 0
		}
		return r
	}

	// httpmsg: parse + intern, exactly the front-end's read path.
	{
		interner := core.NewInterner()
		rd := bytes.NewReader(in.wire)
		br := bufio.NewReaderSize(rd, 16<<10)
		left := len(in.reqs)
		lr.measure("httpmsg.parse", layerBlockOps, func(n int) int64 {
			for i := 0; i < n; i++ {
				if left == 0 {
					rd.Reset(in.wire)
					br.Reset(rd)
					left = len(in.reqs)
				}
				req, err := httpmsg.ReadRequestInterned(br, interner)
				if err != nil {
					lr.fail("httpmsg.parse", err)
					return 0
				}
				sink = req
				left--
			}
			return int64(n)
		})
	}
	// httpmsg: the back-end's response head, and parsing it back.
	{
		var sr strings.Reader
		br := bufio.NewReaderSize(&sr, 4<<10)
		i := 0
		lr.measure("httpmsg.response", layerBlockOps, func(n int) int64 {
			for k := 0; k < n; k++ {
				r := next(&i)
				sr.Reset(httpmsg.ResponseHead("HTTP/1.1", 200, r.Size, true))
				br.Reset(&sr)
				resp, err := httpmsg.ReadResponse(br)
				if err != nil || resp.ContentLength != r.Size {
					lr.fail("httpmsg.response", fmt.Errorf("head for %q did not round-trip: %v", r.Target, err))
					return 0
				}
			}
			return int64(n)
		})
	}
	// core: the pinned interner, as the front-end uses it.
	{
		interner := core.NewInterner()
		i := 0
		lr.measure("core.intern", layerBlockOps, func(n int) int64 {
			for k := 0; k < n; k++ {
				id := interner.Intern(next(&i).Target)
				interner.Release(id)
			}
			return int64(n)
		})
		lr.counts["core.intern_hit_ratio"] = 1 - float64(len(in.catalog))/float64(len(in.reqs))
	}
	// dispatch: the engine over dstate.Local, and under it the bare policy.
	// The difference is the engine's and the store's overhead.
	lr.replayDispatch(in)
	lr.replayHandoff()
	// cluster: the back-end document store with a zero-cost disk.
	{
		ds := cluster.NewDocStore(in.catalog, 2*in.bytes, server.DiskParams{}, 1)
		i := 0
		lr.measure("cluster.docstore", layerBlockOps, func(n int) int64 {
			for k := 0; k < n; k++ {
				r := next(&i)
				if sz, err := ds.Open(r.Target); err != nil || sz != r.Size {
					lr.fail("cluster.docstore", fmt.Errorf("open %q: size %d, want %d: %v", r.Target, sz, r.Size, err))
					return 0
				}
			}
			return int64(n)
		})
		hits, misses := ds.Counters()
		lr.counts["cluster.docstore_hits"], lr.counts["cluster.docstore_misses"] = float64(hits), float64(misses)
	}
	// cluster: the content writer, by bytes.
	{
		i := 0
		lr.measure("cluster.content", 100, func(n int) int64 {
			var b int64
			for k := 0; k < n; k++ {
				r := next(&i)
				if err := cluster.WriteContent(io.Discard, r.Target, r.Size); err != nil {
					lr.fail("cluster.content", err)
					return 0
				}
				b += r.Size
			}
			return b
		})
	}
	// cache: the simulator's per-node LRU, sized to hold a third of the
	// stream's distinct bytes so that it evicts.
	{
		var ws int64
		for _, sz := range in.catalog {
			ws += sz
		}
		lru := cache.NewIDLRU(ws/3 + 1)
		i := 0
		lr.measure("cache.idlru", layerBlockOps, func(n int) int64 {
			for k := 0; k < n; k++ {
				r := next(&i)
				if !lru.Lookup(r.ID) {
					lru.Insert(r.ID, r.Size)
				}
			}
			return int64(n)
		})
	}
	// simcore: schedule and run events, delays spread like service times.
	{
		eng := simcore.NewEngine()
		noop := func(any, int64, int64) {}
		i := 0
		lr.measure("simcore.event", layerBlockOps, func(n int) int64 {
			for k := 0; k < n; k++ {
				eng.CallAfter(core.Micros(next(&i).Size%4096), noop, nil, 0, 0)
			}
			return int64(eng.Run(n))
		})
	}
	// core: the latency histogram both worlds record every request in.
	{
		h := core.NewLatencyHist()
		i := 0
		lr.measure("core.hist_record", layerBlockOps, func(n int) int64 {
			for k := 0; k < n; k++ {
				h.Record(next(&i).Size)
			}
			return int64(n)
		})
	}
	return lr
}

// replayDispatch replays the connections through dispatch.Engine and
// through the bare core.Policy built from the same spec.
func (lr *layerReplay) replayDispatch(in layerInput) {
	eng, err := dispatch.NewEngine(in.spec)
	if err != nil {
		lr.fail("dispatch.assign", err)
		return
	}
	// Requests reach the engine interned by the engine's own interner.
	conns := make([]core.Connection, len(in.conns))
	for ci, c := range in.conns {
		conns[ci].Batches = make([]core.Batch, len(c.Batches))
		for bi, b := range c.Batches {
			nb := make(core.Batch, len(b))
			for ri, r := range b {
				r.ID = eng.Interner().Intern(r.Target)
				nb[ri] = r
			}
			conns[ci].Batches[bi] = nb
		}
	}
	// As under the closed-loop client, `clients` connections are open at
	// any time: each new connection closes the one opened that many
	// connections earlier. With one connection at a time every node's load
	// stays zero and LARD maps every target to node 0.
	var local, forwarded, handoffs int64
	var open [clients]*dispatch.Conn
	ci := 0
	lr.measure("dispatch.assign", layerBlockOps, func(n int) int64 {
		var done int64
		for done < int64(n) {
			c := conns[ci%len(conns)]
			slot := &open[ci%clients]
			ci++
			if len(c.Batches) == 0 {
				continue
			}
			if *slot != nil {
				eng.ConnClose(*slot)
			}
			ec, _ := eng.ConnOpen(c.Batches[0][0])
			*slot = ec
			handoffs++
			for _, b := range c.Batches {
				for _, a := range eng.AssignBatch(ec, b) {
					if a.Forward {
						forwarded++
					} else {
						local++
					}
				}
				eng.BatchDone(ec)
				done += int64(len(b))
			}
		}
		return done
	})
	lr.counts["dispatch.local"] = float64(local)
	lr.counts["dispatch.forwarded"] = float64(forwarded)
	lr.counts["dispatch.handoffs"] = float64(handoffs)

	pol, err := dispatch.Build(in.spec)
	if err != nil {
		lr.fail("policy.assign", err)
		return
	}
	var states [clients]*core.ConnState
	ci = 0
	lr.measure("policy.assign", layerBlockOps, func(n int) int64 {
		var done int64
		for done < int64(n) {
			c := in.conns[ci%len(in.conns)]
			slot := &states[ci%clients]
			ci++
			if len(c.Batches) == 0 {
				continue
			}
			if *slot == nil {
				*slot = core.NewConnState(0)
			} else {
				pol.ConnClose(*slot)
			}
			cs := *slot
			cs.Reset(core.ConnID(ci))
			pol.ConnOpen(cs, c.Batches[0][0])
			for _, b := range c.Batches {
				sink = pol.AssignBatch(cs, b)
				pol.BatchDone(cs)
				done += int64(len(b))
			}
		}
		return done
	})
}

// replayHandoff times the fd handoff: SendConnFD and RecvConnFD of an
// established TCP connection over a UNIX socket pair, and closing the
// received descriptor.
func (lr *layerReplay) replayHandoff() {
	const layer = "cluster.handoff"
	send, recv, err := unixPair()
	if err != nil {
		lr.fail(layer, err)
		return
	}
	defer send.Close()
	defer recv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lr.fail(layer, err)
		return
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		lr.fail(layer, err)
		return
	}
	defer client.Close()
	accepted, err := ln.Accept()
	if err != nil {
		lr.fail(layer, err)
		return
	}
	defer accepted.Close()
	f, err := accepted.(*net.TCPConn).File()
	if err != nil {
		lr.fail(layer, err)
		return
	}
	defer f.Close()
	var id core.ConnID
	lr.measure(layer, 100, func(n int) int64 {
		for k := 0; k < n; k++ {
			id++
			if err := cluster.SendConnFD(send, id, f); err != nil {
				lr.fail(layer, err)
				return 0
			}
			got, conn, err := cluster.RecvConnFD(recv)
			if err != nil || got != id {
				lr.fail(layer, fmt.Errorf("received connection %d, want %d: %v", got, id, err))
				return 0
			}
			conn.Close()
		}
		return int64(n)
	})
}

// unixPair returns the two ends of a connected UNIX stream socket pair.
func unixPair() (a, b *net.UnixConn, err error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, nil, err
	}
	var ends [2]*net.UnixConn
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "handoff-pair")
		c, ferr := net.FileConn(f)
		f.Close() // FileConn dups
		if ferr != nil {
			if ends[0] != nil {
				ends[0].Close()
			}
			if i == 0 {
				syscall.Close(fds[1])
			}
			return nil, nil, ferr
		}
		ends[i] = c.(*net.UnixConn)
	}
	return ends[0], ends[1], nil
}
