package cluster

import (
	"io"
	"sync"
)

// Every back-end write path buffers through a chunkWriter: a size-classed
// buffer checked out of a pool for as long as there are bytes to put out
// and returned the moment they are on the wire, so steady-state serving
// allocates nothing for buffering, whatever mix of body sizes the workload
// produces, and an idle persistent connection holds no buffer at all.
//
// On a handed-off connection the unit of checkout is one drain of the
// connection's request queue (see respWriter): the responses of a
// pipelined batch share a chunk — the smallest class that holds them — and
// leave in one write; a body beyond the largest class streams through it
// in writes of that size. A relay frame owns a chunk for one response, on
// each node: the back-end writes it into one, and the front-end reads it
// into one (frameChunk) and keeps it until it is written to the client.

// chunkClasses are the pooled buffer sizes. The smallest covers the
// response head plus the workload's median bodies (~3-6 KB), the middle
// one the bulk of the size distribution, the largest matches the old fixed
// bufio size so large transfers keep their syscall batching.
var chunkClasses = [...]int{4 << 10, 16 << 10, 64 << 10}

// chunkWriter buffers writes into its size-classed chunk, flushing to the
// underlying writer whenever the chunk fills — bufio.Writer semantics
// minus the per-response allocations. The buffer lives with the writer
// across checkouts (a sync.Pool of writer pointers boxes nothing), so a
// warmed pool serves responses with zero buffering allocations. Not safe
// for concurrent use; one goroutine owns it from checkout to release.
type chunkWriter struct {
	w     io.Writer
	buf   []byte
	n     int
	class int
	// flushes counts the writes issued since checkout, so a caller that
	// shares the chunk among several responses can tell whether the
	// earlier ones have left.
	flushes int
}

// chunkWriters pools one writer (with its attached buffer) per size class,
// shared by every backend in the process (in-process harnesses run
// several).
var chunkWriters [len(chunkClasses)]sync.Pool

// chunkClassFor returns the index of the smallest class covering hint, or
// the largest class (streamed through repeatedly) beyond it.
func chunkClassFor(hint int64) int {
	for i, size := range chunkClasses {
		if hint <= int64(size) {
			return i
		}
	}
	return len(chunkClasses) - 1
}

// newChunkWriter checks a writer sized for a total response of hint bytes
// out of the pool. Callers must call release when done.
func newChunkWriter(w io.Writer, hint int64) *chunkWriter {
	class := chunkClassFor(hint)
	cw, ok := chunkWriters[class].Get().(*chunkWriter)
	if !ok {
		cw = &chunkWriter{buf: make([]byte, chunkClasses[class]), class: class}
	}
	cw.w = w
	cw.n = 0
	cw.flushes = 0
	return cw
}

// frameChunk checks out a chunk for a relayed response frame of n bytes,
// which it holds as buf[:n]: the smallest class that holds it. A frame
// past the largest class gets a buffer of its own, which release leaves
// to the collector.
func frameChunk(n int) *chunkWriter {
	if n > chunkClasses[len(chunkClasses)-1] {
		return &chunkWriter{buf: make([]byte, n), n: n, class: -1}
	}
	cw := newChunkWriter(nil, int64(n))
	cw.n = n
	return cw
}

// release returns the writer (and its buffer) to its class pool. It does
// not flush; callers flush explicitly so write errors stay visible.
func (cw *chunkWriter) release() {
	cw.w = nil
	if cw.class >= 0 {
		chunkWriters[cw.class].Put(cw)
	}
}

// Write implements io.Writer.
func (cw *chunkWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		if cw.n == len(cw.buf) {
			if err := cw.Flush(); err != nil {
				return total, err
			}
		}
		c := copy(cw.buf[cw.n:], p)
		cw.n += c
		p = p[c:]
		total += c
	}
	return total, nil
}

// ReadFrom implements io.ReaderFrom, reading directly into the pooled
// chunk. Without it, io.Copy/CopyN (the lateral-fetch forwarding path)
// would fall back to allocating its own 32 KB copy buffer per response —
// the very allocation this pool removes.
func (cw *chunkWriter) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	for {
		if cw.n == len(cw.buf) {
			if err := cw.Flush(); err != nil {
				return total, err
			}
		}
		m, err := r.Read(cw.buf[cw.n:])
		cw.n += m
		total += int64(m)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// Flush writes the buffered bytes through.
func (cw *chunkWriter) Flush() error {
	if cw.n == 0 {
		return nil
	}
	_, err := cw.w.Write(cw.buf[:cw.n])
	cw.n = 0
	cw.flushes++
	return err
}
