package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"phttp/internal/core"
)

func binTestTrace(t *testing.T) *Trace {
	t.Helper()
	cfg := SmallSynthConfig()
	cfg.Connections = 600
	return NewSynth(cfg).Generate()
}

// TestBinaryRoundTrip is the bit-exactness acceptance test: write → read →
// deep-equal on connections (IDs included), sizes and interner contents.
func TestBinaryRoundTrip(t *testing.T) {
	tr := binTestTrace(t)
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, tr, 0xdeadbeef)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteBinary reported %d bytes, wrote %d", n, buf.Len())
	}
	got, hash, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hash != 0xdeadbeef {
		t.Errorf("config hash round trip = %x", hash)
	}
	if !reflect.DeepEqual(tr.Conns, got.Conns) {
		t.Error("connections did not round-trip")
	}
	if !reflect.DeepEqual(tr.Sizes, got.Sizes) {
		t.Error("sizes table did not round-trip")
	}
	if tr.Interner.Len() != got.Interner.Len() {
		t.Fatalf("interner table %d targets, want %d", got.Interner.Len(), tr.Interner.Len())
	}
	for id := core.TargetID(1); int(id) <= tr.Interner.Len(); id++ {
		if tr.Interner.Name(id) != got.Interner.Name(id) {
			t.Fatalf("ID %d names %q, want %q", id, got.Interner.Name(id), tr.Interner.Name(id))
		}
	}
}

// TestBinaryWriterToReaderFrom covers the io.WriterTo / io.ReaderFrom
// face of the same format.
func TestBinaryWriterToReaderFrom(t *testing.T) {
	tr := binTestTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var got Trace
	n, err := got.ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("ReadFrom consumed %d bytes of %d", n, buf.Len())
	}
	if !reflect.DeepEqual(tr.Conns, got.Conns) || !reflect.DeepEqual(tr.Sizes, got.Sizes) {
		t.Error("WriterTo/ReaderFrom round trip mismatch")
	}
}

// binReaders enumerates both public decode entry points — ReadBinary over
// a stream (what a scenario's traceFile and phttp-tracegen -in use) and
// ReadBinaryBytes over a buffer — so the corruption suite runs against each.
func binReaders() []struct {
	name string
	read func(data []byte) (*Trace, uint64, error)
} {
	return []struct {
		name string
		read func(data []byte) (*Trace, uint64, error)
	}{
		{"bytes", ReadBinaryBytes},
		{"reader", func(data []byte) (*Trace, uint64, error) { return ReadBinary(bytes.NewReader(data)) }},
	}
}

// restamp recomputes the CRC trailer after a deliberate payload mutation,
// so tests can exercise semantic validation (duplicate targets, bad
// layouts) that sits behind the checksum.
func restamp(data []byte) []byte {
	crc := crc32.Checksum(data[:len(data)-4], crcTable)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc)
	return data
}

// TestBinaryRejectsCorruption is the shared failure-mode suite: every
// case mutates a clean encoding, and both entry points must reject it.
// Flip cases check the one-pass CRC; truncations check bounds handling; the
// huge-count case must fail without allocating for the declared count;
// the duplicate-target case restamps the checksum so the semantic check
// itself is what fires.
func TestBinaryRejectsCorruption(t *testing.T) {
	tr := binTestTrace(t)
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, tr, 42); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	flip := func(pos int) func(*testing.T, []byte) []byte {
		return func(_ *testing.T, b []byte) []byte { b[pos] ^= 0x40; return b }
	}
	truncate := func(n int) func(*testing.T, []byte) []byte {
		return func(_ *testing.T, b []byte) []byte { return b[:n] }
	}
	cases := []struct {
		name string
		// mutate owns its argument (a fresh copy of clean).
		mutate func(*testing.T, []byte) []byte
		// anyError accepts any error (e.g. version mismatch is not
		// ErrCorruptTrace); otherwise errors.Is(err, ErrCorruptTrace).
		anyError bool
	}{
		{name: "flip-header", mutate: flip(5)},
		{name: "flip-table", mutate: flip(20)},
		{name: "flip-payload", mutate: flip(200)},
		{name: "flip-middle", mutate: flip(len(clean) / 2)},
		{name: "flip-trailer", mutate: flip(len(clean) - 2)},
		{name: "empty-file", mutate: truncate(0)},
		{name: "truncated-magic", mutate: truncate(3)},
		{name: "truncated-header", mutate: truncate(15)},
		{name: "header-only", mutate: truncate(16)},
		{name: "truncated-table", mutate: truncate(40)},
		{name: "truncated-tail", mutate: truncate(len(clean) - 3)},
		{name: "bad-magic", mutate: func(_ *testing.T, b []byte) []byte { b[0] = 'X'; return b }},
		{name: "future-version", mutate: func(_ *testing.T, b []byte) []byte { b[4] = BinFormatVersion + 1; return b }, anyError: true},
		{name: "huge-count", mutate: func(*testing.T, []byte) []byte {
			// A header declaring ~2^42 batches with no payload behind it:
			// the reader must fail on truncation without allocating.
			return []byte("PHTB\x01\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" +
				"\x80\x80\x80\x80\x80\x80")
		}},
		{name: "duplicate-target", mutate: func(t *testing.T, b []byte) []byte {
			// Walk the target table for two equal-length names, overwrite
			// the second with the first, and restamp the checksum — only
			// the duplicate check itself can reject the result.
			d := binDecoder{rest: b[16:]}
			for i := 0; i < 3; i++ { // totals ×2, layout
				if _, err := d.uvarint(); err != nil {
					t.Fatal(err)
				}
			}
			nTargets, err := d.uvarint()
			if err != nil {
				t.Fatal(err)
			}
			var prev []byte
			for i := uint64(0); i < nTargets; i++ {
				name, err := d.bytes()
				if err != nil {
					t.Fatal(err)
				}
				if prev != nil && len(prev) == len(name) && !bytes.Equal(prev, name) {
					copy(name, prev)
					return restamp(b)
				}
				prev = name
				if _, err := d.uvarint(); err != nil { // size
					t.Fatal(err)
				}
				if _, err := d.uvarint(); err != nil { // flags
					t.Fatal(err)
				}
			}
			t.Skip("no equal-length adjacent table entries to duplicate")
			return nil
		}},
	}
	for _, rd := range binReaders() {
		for _, tc := range cases {
			t.Run(rd.name+"/"+tc.name, func(t *testing.T) {
				data := tc.mutate(t, append([]byte(nil), clean...))
				_, _, err := rd.read(data)
				if tc.anyError {
					if err == nil {
						t.Error("corruption accepted")
					}
				} else if !errors.Is(err, ErrCorruptTrace) {
					t.Errorf("err = %v, want ErrCorruptTrace", err)
				}
			})
		}
	}
}

// TestBinaryRejectsPerTargetSizeConflict pins the documented invariant:
// one size per target.
func TestBinaryRejectsPerTargetSizeConflict(t *testing.T) {
	tr := &Trace{
		Sizes: map[core.Target]int64{"/a": 10},
		Conns: []core.Connection{
			{Batches: []core.Batch{{{Target: "/a", Size: 10}}}},
			{Batches: []core.Batch{{{Target: "/a", Size: 20}}}},
		},
	}
	if _, err := WriteBinary(io.Discard, tr, 0); err == nil {
		t.Error("conflicting per-target sizes accepted")
	}
}

// TestBinaryPreservesExtraSizes covers catalog entries never requested
// (the extras section) and requested targets missing from Sizes.
func TestBinaryPreservesExtraSizes(t *testing.T) {
	tr := &Trace{
		Sizes: map[core.Target]int64{"/a": 10, "/never-requested": 777, "/zzz": 1},
		Conns: []core.Connection{
			{Batches: []core.Batch{{{Target: "/a", Size: 10}, {Target: "/uncataloged", Size: 5}}}},
		},
	}
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Sizes, got.Sizes) {
		t.Errorf("sizes round trip:\ngot  %v\nwant %v", got.Sizes, tr.Sizes)
	}
	if !reflect.DeepEqual(tr.Conns, got.Conns) {
		t.Errorf("conns round trip:\ngot  %+v\nwant %+v", got.Conns, tr.Conns)
	}
}

// TestBinaryRejectsRepeatedExtra: an extras entry naming a table target
// would silently replace that target's catalog size, leaving a trace that
// WriteBinary refuses, so the decoder rejects it.
func TestBinaryRejectsRepeatedExtra(t *testing.T) {
	tr := &Trace{
		Sizes: map[core.Target]int64{"/a": 10, "/b": 7},
		Conns: []core.Connection{{Batches: []core.Batch{{{Target: "/a", Size: 10}}}}},
	}
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[bytes.Index(data, []byte("/b"))+1] = 'a' // the extra now names "/a"
	if _, _, err := ReadBinaryBytes(restamp(data)); !errors.Is(err, ErrCorruptTrace) {
		t.Errorf("err = %v, want ErrCorruptTrace", err)
	}
}

// TestBinaryFlattenedRoundTrip checks the layoutSingle form: the
// flattened HTTP/1.0 trace round-trips with IDs intact.
func TestBinaryFlattenedRoundTrip(t *testing.T) {
	flat := binTestTrace(t).Flatten10()
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, flat, 7); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat.Conns, got.Conns) || !reflect.DeepEqual(flat.Sizes, got.Sizes) {
		t.Error("flattened trace did not round-trip")
	}
}

// FuzzReadBinary drives the decoder with mutated encodings of both
// layouts. The CRC trailer is recomputed on every input, so a mutation
// reaches the structural checks instead of stopping at the checksum.
// Property: no panic, and any accepted input re-encodes with WriteBinary
// and decodes to an equal trace.
func FuzzReadBinary(f *testing.F) {
	cfg := SmallSynthConfig()
	cfg.Connections = 20
	tr := NewSynth(cfg).Generate()
	for _, seed := range []*Trace{tr, tr.Flatten10()} {
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, seed, 1); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = restamp(append([]byte(nil), data...))
		}
		got, hash, err := ReadBinaryBytes(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, got, hash); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		again, hash2, err := ReadBinaryBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if hash2 != hash || !reflect.DeepEqual(got.Conns, again.Conns) || !reflect.DeepEqual(got.Sizes, again.Sizes) ||
			got.Interner.HighWater() != again.Interner.HighWater() {
			t.Fatal("re-encoded trace differs from the accepted one")
		}
		for id := core.TargetID(1); id <= got.Interner.HighWater(); id++ {
			if got.Interner.Name(id) != again.Interner.Name(id) {
				t.Fatalf("re-encoded trace names ID %d %q, accepted %q", id, again.Interner.Name(id), got.Interner.Name(id))
			}
		}
	})
}
