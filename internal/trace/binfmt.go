package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"phttp/internal/core"
)

// Binary trace format (see DESIGN.md §12). Traces are written as a
// versioned, checksummed, varint-packed stream, so a workload written once
// (phttp-tracegen -out) replays as-is wherever a scenario names it:
//
//	header   magic "PHTB" | u32 format version | u64 config hash
//	totals   uvarint total batches, uvarint total requests — lets the
//	         reader carve every batch and request from two exact-size
//	         slabs instead of allocating millions of tiny slices
//	layout   uvarint: layoutGeneral, or layoutSingle when every connection
//	         is exactly one single-request batch (the Flatten10 form, which
//	         then encodes one varint per connection instead of three)
//	targets  uvarint T, then T × { string, uvarint size, uvarint flags }
//	         in interned-ID order (entry i is TargetID i+1)
//	extras   uvarint E, then E × { string, uvarint size } — targets present
//	         in the Sizes catalog but never requested, sorted by name
//	conns    uvarint C, then per connection uvarint B batches, per batch
//	         uvarint R requests, per request uvarint target slot (ID-1);
//	         under layoutSingle just one target slot per connection
//	trailer  u32 CRC-32C over header + payload
//
// Strings are uvarint length + bytes. The format stores one size per
// target (the invariant Trace.Sizes already encodes); WriteBinary rejects
// traces violating it rather than guessing. Reading re-interns the target
// table in slot order, so loaded request IDs are exactly the IDs EnsureIDs
// would have assigned — a loaded trace is deep-equal to the one written.

// BinFormatVersion is the on-disk trace format version. Bump it whenever
// the layout or the generator's deterministic draw scheme changes so a
// stale file is rejected, never misread.
const BinFormatVersion = 1

var binMagic = [4]byte{'P', 'H', 'T', 'B'}

// ErrCorruptTrace reports a binary trace that failed structural validation
// or its checksum.
var ErrCorruptTrace = errors.New("trace: corrupt binary trace")

// flag bits of a target-table entry.
const flagInSizes = 1 // the target appears in Trace.Sizes

// Connection-section layouts.
const (
	layoutGeneral = 0 // nested batch/request structure
	layoutSingle  = 1 // every connection is one single-request batch
)

// maxBinString bounds a single target string on read; anything larger is
// corruption, not a URL.
const maxBinString = 1 << 20

// crcTable is Castagnoli, hardware-accelerated on current CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// countWriter tees everything through the checksum and counts bytes.
type countWriter struct {
	w   io.Writer
	h   hash.Hash32
	n   int64
	err error
}

func (cw *countWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.h.Write(p[:n])
	cw.n += int64(n)
	cw.err = err
	return n, err
}

// WriteBinary writes t in the binary trace format, stamping configHash
// into the header (use ConfigHash for synthetic workloads, 0 when the
// trace has no generating config). The trace is interned first when it
// was not already (EnsureIDs). It returns the bytes written.
func WriteBinary(w io.Writer, t *Trace, configHash uint64) (int64, error) {
	t.EnsureIDs()
	catalog := t.Catalog()
	nTargets := int(t.Interner.HighWater())

	// One size per target, from the requests (validated uniform) and
	// cross-checked against the Sizes catalog; batch and request totals
	// for the header while we are walking everything anyway.
	sizes := make([]int64, nTargets)
	seen := make([]bool, nTargets)
	var totalBatches, totalRequests uint64
	allSingle := true
	for _, c := range t.Conns {
		totalBatches += uint64(len(c.Batches))
		if len(c.Batches) != 1 || len(c.Batches[0]) != 1 {
			allSingle = false
		}
		for _, b := range c.Batches {
			totalRequests += uint64(len(b))
			for _, r := range b {
				slot := int(r.ID) - 1
				if slot < 0 || slot >= nTargets {
					return 0, fmt.Errorf("trace: request %q has un-interned or foreign ID %d", r.Target, r.ID)
				}
				if seen[slot] && sizes[slot] != r.Size {
					return 0, fmt.Errorf("trace: target %q has sizes %d and %d; the binary format stores one size per target",
						r.Target, sizes[slot], r.Size)
				}
				sizes[slot] = r.Size
				seen[slot] = true
			}
		}
	}

	cw := &countWriter{w: w, h: crc32.New(crcTable)}
	bw := bufio.NewWriterSize(cw, 1<<16)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		bw.Write(scratch[:binary.PutUvarint(scratch[:], v)])
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		bw.WriteString(s)
	}

	bw.Write(binMagic[:])
	binary.LittleEndian.PutUint32(scratch[:4], BinFormatVersion)
	bw.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:8], configHash)
	bw.Write(scratch[:8])
	putUvarint(totalBatches)
	putUvarint(totalRequests)
	layout := uint64(layoutGeneral)
	if allSingle {
		layout = layoutSingle
	}
	putUvarint(layout)

	putUvarint(uint64(nTargets))
	for slot := 0; slot < nTargets; slot++ {
		name := t.Interner.Name(core.TargetID(slot + 1))
		cataloged, inSizes := catalog[name]
		if inSizes && seen[slot] && cataloged != sizes[slot] {
			return 0, fmt.Errorf("trace: target %q requested with size %d but cataloged at %d", name, sizes[slot], cataloged)
		}
		if !seen[slot] {
			sizes[slot] = cataloged
		}
		putString(string(name))
		putUvarint(uint64(sizes[slot]))
		var flags uint64
		if inSizes {
			flags |= flagInSizes
		}
		putUvarint(flags)
	}

	extras := make([]core.Target, 0)
	for name := range catalog {
		if _, ok := t.Interner.Lookup(name); !ok {
			extras = append(extras, name)
		}
	}
	sortTargets(extras)
	putUvarint(uint64(len(extras)))
	for _, name := range extras {
		putString(string(name))
		putUvarint(uint64(catalog[name]))
	}

	putUvarint(uint64(len(t.Conns)))
	if allSingle {
		for _, c := range t.Conns {
			putUvarint(uint64(c.Batches[0][0].ID - 1))
		}
	} else {
		for _, c := range t.Conns {
			putUvarint(uint64(len(c.Batches)))
			for _, b := range c.Batches {
				putUvarint(uint64(len(b)))
				for _, r := range b {
					putUvarint(uint64(r.ID - 1))
				}
			}
		}
	}

	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	binary.LittleEndian.PutUint32(scratch[:4], cw.h.Sum32())
	// The trailer is not part of its own checksum; write it past the tee.
	n, err := cw.w.Write(scratch[:4])
	return cw.n + int64(n), err
}

// ReadBinary reads one binary trace, returning the trace and the config
// hash recorded in its header. Structural problems, truncation and
// checksum mismatches all return errors wrapping ErrCorruptTrace; a
// successfully read trace is deep-equal to the one written, with targets
// interned in the original ID order.
//
// The whole stream is buffered in memory first, so the checksum is one
// bulk CRC pass and decoding works on a byte slice with no per-varint
// reader calls. Callers that already hold the bytes should use
// ReadBinaryBytes.
func ReadBinary(r io.Reader) (*Trace, uint64, error) {
	data, err := io.ReadAll(bufio.NewReaderSize(r, 1<<16))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorruptTrace, err)
	}
	return ReadBinaryBytes(data)
}

// binDecoder walks a binary trace payload.
type binDecoder struct {
	rest []byte
}

func (d *binDecoder) uvarint() (uint64, error) {
	// One-byte fast path: popular targets get low slots (first
	// appearance under a Zipf-skewed draw), so most varints in the
	// hot connection section are single bytes.
	if len(d.rest) > 0 && d.rest[0] < 0x80 {
		v := uint64(d.rest[0])
		d.rest = d.rest[1:]
		return v, nil
	}
	v, n := binary.Uvarint(d.rest)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrCorruptTrace)
	}
	d.rest = d.rest[n:]
	return v, nil
}

func (d *binDecoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxBinString || n > uint64(len(d.rest)) {
		return nil, fmt.Errorf("%w: %d-byte string with %d bytes left", ErrCorruptTrace, n, len(d.rest))
	}
	b := d.rest[:n]
	d.rest = d.rest[n:]
	return b, nil
}

// capHint bounds a preallocation by what the declared count could
// plausibly be: every encoded item takes at least one byte, so a count
// beyond the remaining payload is corruption, not a reason to allocate.
func (d *binDecoder) capHint(n uint64) int {
	if n > uint64(len(d.rest)) {
		return len(d.rest)
	}
	return int(n)
}

// ReadBinaryBytes is ReadBinary over an in-memory encoding. The trace
// copies everything it keeps, so data may be reused afterwards.
func ReadBinaryBytes(data []byte) (*Trace, uint64, error) {
	if len(data) < 20 {
		return nil, 0, fmt.Errorf("%w: %d-byte file", ErrCorruptTrace, len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, 0, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorruptTrace, want, got)
	}
	if [4]byte(payload[:4]) != binMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorruptTrace, payload[:4])
	}
	if v := binary.LittleEndian.Uint32(payload[4:8]); v != BinFormatVersion {
		return nil, 0, fmt.Errorf("trace: binary format version %d, this build reads %d", v, BinFormatVersion)
	}
	configHash := binary.LittleEndian.Uint64(payload[8:16])
	d := binDecoder{rest: payload[16:]}

	totalBatches, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	totalRequests, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	// Every batch and request takes at least one payload byte, so totals
	// beyond the payload are corruption, not allocation requests.
	if totalBatches > uint64(len(d.rest)) || totalRequests > uint64(len(d.rest)) {
		return nil, 0, fmt.Errorf("%w: totals (%d batches, %d requests) exceed payload", ErrCorruptTrace, totalBatches, totalRequests)
	}
	layout, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if layout != layoutGeneral && layout != layoutSingle {
		return nil, 0, fmt.Errorf("%w: unknown connection layout %d", ErrCorruptTrace, layout)
	}

	nTargets, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	t := &Trace{Sizes: make(map[core.Target]int64, d.capHint(nTargets))}
	sizes := make([]int64, 0, d.capHint(nTargets))
	// All names share one backing blob (sliced after the scan) — one
	// allocation instead of one per target.
	var (
		nameData  []byte
		offs      = make([]int, 1, d.capHint(nTargets)+1)
		entryFlag = make([]uint8, 0, d.capHint(nTargets))
	)
	for i := uint64(0); i < nTargets; i++ {
		name, err := d.bytes()
		if err != nil {
			return nil, 0, err
		}
		nameData = append(nameData, name...)
		offs = append(offs, len(nameData))
		size, err := d.uvarint()
		if err != nil {
			return nil, 0, err
		}
		flags, err := d.uvarint()
		if err != nil {
			return nil, 0, err
		}
		sizes = append(sizes, int64(size))
		entryFlag = append(entryFlag, uint8(flags))
	}
	blob := string(nameData)
	names := make([]core.Target, nTargets)
	for i := range names {
		names[i] = core.Target(blob[offs[i]:offs[i+1]])
		if entryFlag[i]&flagInSizes != 0 {
			t.Sizes[names[i]] = sizes[i]
		}
	}
	// Rebuild the interner in one presized bulk fill — per-target Intern
	// calls pay a lock round trip and incremental map growth. The fill
	// collapses a repeated name, so a short table is a duplicate entry.
	t.Interner = core.NewInternerFromNames(names)
	if t.Interner.Len() != len(names) {
		return nil, 0, fmt.Errorf("%w: duplicate target in table", ErrCorruptTrace)
	}

	nExtras, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	for i := uint64(0); i < nExtras; i++ {
		name, err := d.bytes()
		if err != nil {
			return nil, 0, err
		}
		size, err := d.uvarint()
		if err != nil {
			return nil, 0, err
		}
		// An extra is a catalog entry outside the table, written once: a
		// repeat would overwrite a size the table or an earlier extra set.
		_, inSizes := t.Sizes[core.Target(name)]
		if _, inTable := t.Interner.Lookup(core.Target(name)); inSizes || inTable {
			return nil, 0, fmt.Errorf("%w: extra %q repeats a target", ErrCorruptTrace, name)
		}
		t.Sizes[core.Target(name)] = int64(size)
	}

	nConns, err := d.uvarint()
	if err != nil {
		return nil, 0, err
	}
	// Every batch and request slice is carved from one exact-size slab
	// each (sized by the header totals): a loaded trace holds millions of
	// tiny slices, and allocating each one separately made loading as slow
	// as regenerating the workload.
	reqSlab := make([]core.Request, totalRequests)
	batchSlab := make([]core.Batch, totalBatches)
	if layout == layoutSingle {
		// Flatten10 form: one varint per connection, decoded with an
		// indexed loop.
		if totalBatches != nConns || totalRequests != nConns {
			return nil, 0, fmt.Errorf("%w: single-request layout totals mismatch", ErrCorruptTrace)
		}
		conns := make([]core.Connection, nConns)
		p, pos := d.rest, 0
		for i := range conns {
			var slot uint64
			if pos < len(p) && p[pos] < 0x80 {
				slot = uint64(p[pos])
				pos++
			} else {
				v, n := binary.Uvarint(p[pos:])
				if n <= 0 {
					return nil, 0, fmt.Errorf("%w: truncated varint", ErrCorruptTrace)
				}
				slot, pos = v, pos+n
			}
			if slot >= uint64(len(names)) {
				return nil, 0, fmt.Errorf("%w: request references target slot %d of %d", ErrCorruptTrace, slot, len(names))
			}
			reqSlab[i] = core.Request{
				Target: names[slot],
				ID:     core.TargetID(slot + 1),
				Size:   sizes[slot],
			}
			batchSlab[i] = core.Batch(reqSlab[i : i+1 : i+1])
			conns[i] = core.Connection{Batches: batchSlab[i : i+1 : i+1]}
		}
		t.Conns = conns
		if rest := p[pos:]; len(rest) != 0 {
			return nil, 0, fmt.Errorf("%w: %d bytes of trailing garbage", ErrCorruptTrace, len(rest))
		}
		return t, configHash, nil
	}
	t.Conns = make([]core.Connection, 0, d.capHint(nConns))
	for i := uint64(0); i < nConns; i++ {
		nBatches, err := d.uvarint()
		if err != nil {
			return nil, 0, err
		}
		if nBatches > uint64(len(batchSlab)) {
			return nil, 0, fmt.Errorf("%w: more batches than the header total", ErrCorruptTrace)
		}
		var batches []core.Batch
		if nBatches > 0 {
			batches = batchSlab[:nBatches:nBatches]
			batchSlab = batchSlab[nBatches:]
		}
		for j := range batches {
			nReqs, err := d.uvarint()
			if err != nil {
				return nil, 0, err
			}
			if nReqs > uint64(len(reqSlab)) {
				return nil, 0, fmt.Errorf("%w: more requests than the header total", ErrCorruptTrace)
			}
			var batch core.Batch
			if nReqs > 0 {
				batch = reqSlab[:nReqs:nReqs]
				reqSlab = reqSlab[nReqs:]
			}
			for k := range batch {
				slot, err := d.uvarint()
				if err != nil {
					return nil, 0, err
				}
				if slot >= uint64(len(names)) {
					return nil, 0, fmt.Errorf("%w: request references target slot %d of %d", ErrCorruptTrace, slot, len(names))
				}
				batch[k] = core.Request{
					Target: names[slot],
					ID:     core.TargetID(slot + 1),
					Size:   sizes[slot],
				}
			}
			batches[j] = batch
		}
		t.Conns = append(t.Conns, core.Connection{Batches: batches})
	}
	if len(reqSlab) != 0 || len(batchSlab) != 0 {
		return nil, 0, fmt.Errorf("%w: header totals exceed encoded batches/requests", ErrCorruptTrace)
	}

	if len(d.rest) != 0 {
		return nil, 0, fmt.Errorf("%w: %d bytes of trailing garbage", ErrCorruptTrace, len(d.rest))
	}
	return t, configHash, nil
}

// WriteTo writes the trace in the binary format with a zero config hash,
// implementing io.WriterTo. Workloads generated from a SynthConfig should
// go through WriteBinary with ConfigHash so the file records its
// provenance.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	return WriteBinary(w, t, 0)
}

// ReadFrom replaces the trace's contents with one read from r in the
// binary format, implementing io.ReaderFrom. The recorded config hash is
// discarded; use ReadBinary to inspect it.
func (t *Trace) ReadFrom(r io.Reader) (int64, error) {
	cr := &countReader{r: r}
	read, _, err := ReadBinary(cr)
	if err != nil {
		return cr.n, err
	}
	*t = *read
	return cr.n, nil
}

type countReader struct {
	r io.Reader
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// sortTargets sorts targets lexicographically (insertion sort is fine: the
// extras section is empty for generated workloads).
func sortTargets(ts []core.Target) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
