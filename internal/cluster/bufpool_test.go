package cluster

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"phttp/internal/core"
	"phttp/internal/httpmsg"
)

// writeBuffered is the cycle every back-end write path follows: check a
// chunk out, write head and body through it, flush, give it back.
func writeBuffered(w io.Writer, head []byte, body func(io.Writer) error, hint int64) error {
	cw := newChunkWriter(w, hint)
	defer cw.release()
	if _, err := cw.Write(head); err != nil {
		return err
	}
	if err := body(cw); err != nil {
		return err
	}
	return cw.Flush()
}

// TestChunkWriterCorrectness checks the pooled path emits byte-identical
// responses to a plain unbuffered write, across every size class and the
// beyond-largest streaming case.
func TestChunkWriterCorrectness(t *testing.T) {
	for _, size := range []int64{0, 1, 100, 4 << 10, 5 << 10, 16 << 10, 60 << 10, 64 << 10, 300 << 10} {
		target := core.Target(fmt.Sprintf("/chunk/%d", size))
		head := httpmsg.AppendResponseHead(nil, "HTTP/1.1", 200, size, true)

		var want bytes.Buffer
		want.Write(head)
		if err := WriteContent(&want, target, size); err != nil {
			t.Fatal(err)
		}

		var got bytes.Buffer
		err := writeBuffered(&got, head, func(w io.Writer) error {
			return WriteContent(w, target, size)
		}, int64(len(head))+size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("size %d: pooled response differs from reference (%d vs %d bytes)",
				size, got.Len(), want.Len())
		}
	}
}

func TestChunkClassFor(t *testing.T) {
	for hint, want := range map[int64]int{
		0: 0, 1: 0, 4 << 10: 0,
		4<<10 + 1: 1, 16 << 10: 1,
		16<<10 + 1: 2, 64 << 10: 2,
		1 << 20: 2, // beyond the largest class: stream through it
	} {
		if got := chunkClassFor(hint); got != want {
			t.Errorf("chunkClassFor(%d) = %d, want %d", hint, got, want)
		}
	}
}

// TestChunkWriterErrorPropagates verifies a failing underlying writer
// surfaces through Write/Flush instead of being swallowed by buffering.
func TestChunkWriterErrorPropagates(t *testing.T) {
	head := bytes.Repeat([]byte("h"), 128)
	err := writeBuffered(failWriter{}, head, func(w io.Writer) error {
		return WriteContent(w, "/x", 256<<10) // forces intermediate flushes
	}, 256<<10)
	if err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// TestWriteBufferedZeroAllocs is the regression test for the size-classed
// chunk pool: once the pools are warm, producing a response — head write,
// content generation, flush — allocates nothing, for a cached-size body,
// a mid-class body and a body larger than the largest class.
func TestWriteBufferedZeroAllocs(t *testing.T) {
	for _, size := range []int64{3 << 10, 12 << 10, 200 << 10} {
		target := core.Target(fmt.Sprintf("/alloc/%d", size))
		head := httpmsg.AppendResponseHead(nil, "HTTP/1.1", 200, size, true)
		hint := int64(len(head)) + size
		body := func(w io.Writer) error { return WriteContent(w, target, size) }
		run := func() {
			if err := writeBuffered(io.Discard, head, body, hint); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pool and the content chunk cache
		if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
			t.Errorf("size %d: %v allocs per response, want 0", size, allocs)
		}
	}
}

// TestChunkWriterReadFrom pins the io.ReaderFrom path io.CopyN takes on
// the forwarded-fetch branch: byte-correct and allocation-free, so
// lateral fetches stream through the pooled chunk instead of a fresh
// io.Copy buffer.
func TestChunkWriterReadFrom(t *testing.T) {
	const size = 100 << 10
	payload := bytes.Repeat([]byte("forward!"), size/8)
	var got bytes.Buffer
	err := writeBuffered(&got, []byte("HEAD\r\n"), func(w io.Writer) error {
		_, err := io.CopyN(w, bytes.NewReader(payload), size)
		return err
	}, 6+size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), append([]byte("HEAD\r\n"), payload...)) {
		t.Fatal("ReadFrom path corrupted the stream")
	}

	head := []byte("HEAD\r\n")
	body := func(w io.Writer) error {
		_, err := io.CopyN(w, bytes.NewReader(payload), size)
		return err
	}
	run := func() {
		if err := writeBuffered(io.Discard, head, body, 6+size); err != nil {
			t.Fatal(err)
		}
	}
	run()
	// Two small allocs are the harness's own (bytes.NewReader plus CopyN's
	// LimitReader wrapper); what must NOT appear is a third — io.Copy's
	// 32 KB fallback buffer, which ReadFrom exists to avoid.
	if allocs := testing.AllocsPerRun(100, run); allocs > 2 {
		t.Errorf("CopyN through chunkWriter: %v allocs per response, want <= 2 (no copy buffer)", allocs)
	}
}

// BenchmarkWriteBuffered tracks the buffered-response hot path (the old
// implementation allocated a 32 KB bufio.Writer per call).
func BenchmarkWriteBuffered(b *testing.B) {
	const size = 12 << 10
	head := httpmsg.AppendResponseHead(nil, "HTTP/1.1", 200, size, true)
	body := func(w io.Writer) error { return WriteContent(w, "/bench", size) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeBuffered(io.Discard, head, body, int64(len(head))+size); err != nil {
			b.Fatal(err)
		}
	}
}
