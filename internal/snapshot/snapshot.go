// Package snapshot implements the versioned binary codec for warm-state
// simulator snapshots. A snapshot captures the complete mutable state of an
// aged device — flash array, mapping tables, allocator and GC state, DRAM
// caches and chip clocks — so that a sweep can age once and fork
// every variant replay from the checkpoint instead of re-aging (DESIGN §13).
//
// Container layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "AXSN"
//	4       4     format version (currently 3)
//	8       4     flags (bit 0: the payload is DEFLATE; bit 1: it is packed)
//	12      8     body length in bytes
//	20      32    SHA-256 of the body
//	52      ...   payload: the body as it is, DEFLATE-compressed, or packed
//
// The body is a flat sequence of fixed-width primitives and length-prefixed
// slices produced by Encoder and consumed by Decoder. Section tags (Tag)
// are embedded as strings and verified on decode, so a structural mismatch
// between writer and reader fails loudly instead of misinterpreting bytes.
// A slice is a column — a u64 count, then fixed-width little-endian elements.
//
// Every per-page, per-LPN and per-slot column goes out at the width the
// runner's table holds it — a byte, 32 or 64 bits, a lazily allocated column
// behind a presence byte that says whether it holds anything — so the body
// of a checkpoint is the size of the state it carries. A checkpoint's payload
// is packed (pack.go): each column of 1-, 4- or 8-byte elements in blocks of
// 128, frame-of-reference bit-packed with exceptions, and everything else
// as it is. A checkpoint is a cache of a deterministic computation: old
// versions are refused with ErrVersion and re-aged, never migrated.
// Nothing writes DEFLATE any more; the decoder still reads it, since trace-v2
// files from earlier releases carry it.
//
// Neither side ever holds the body. Both work through one window of
// windowBytes: the Encoder hashes the window each time it fills and writes
// it out, packing each column a window at a time, and patches the header's
// length and digest in at Finish; the Decoder unpacks or inflates into the
// window, hashes what arrives and hands it out. A big column crosses the
// window a block at a time (Encoder.Column, Decoder.Column), straight between
// a component's arrays and the stream, so the memory a snapshot or a restore
// needs beyond the state itself does not grow with the device. A raw
// container, whose payload is its body, fills a column larger than the window
// straight into the output instead, in a piece reserved to the column's end.
//
// It follows that the digest is verified after the receiver was filled, at
// Decoder.Finish, not before. Nothing ever rested on the other order: every
// element is range-checked on its way into a receiver whether or not the
// digest will match, a receiver whose restore failed is dropped, and nothing
// decoded may be used before Finish has returned nil.
//
// Determinism: every encoder input is produced in a canonical order (sparse
// tables are serialised in ascending key order), the packer's choices depend
// only on the elements of a block, and the checksum covers the body — so
// encode→decode→encode reproduces the container byte for byte. The decoder
// is hardened against hostile inputs (fuzzed by FuzzSnapshotDecode and
// FuzzPackedColumn): no count is believed beyond what the payload present
// could expand to, nothing is expanded past one byte beyond the declared
// length, every read is bounded, and errors are typed, never a panic.
package snapshot

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
)

// Version is the snapshot format version written by this package. Decoders
// reject any other version with ErrVersion.
const Version = 3

const (
	magic      = "AXSN"
	headerSize = 4 + 4 + 4 + 8 + sha256.Size

	flagCompressed = 1 << 0
	flagPacked     = 1 << 1
	knownFlags     = flagCompressed | flagPacked

	// maxBody bounds the body length a decoder will accept.
	// A full Table 1 device serialises to well under 2 GiB; the cap stops
	// decompression bombs long before they hurt.
	maxBody = 1 << 31

	// windowBytes is all of a body that an Encoder or a Decoder holds at
	// once, and the largest block a column is moved in.
	windowBytes = 256 << 10
)

// Typed decode errors. Errors returned by Decoder methods and NewDecoder
// wrap one of these sentinels.
var (
	// ErrTruncated: the container is shorter than its header or its body
	// ends mid-stream.
	ErrTruncated = errors.New("snapshot: truncated container")
	// ErrFormat: bad magic, unknown flags, or an implausible body length.
	ErrFormat = errors.New("snapshot: not a snapshot container")
	// ErrVersion: a well-formed container written by an incompatible
	// format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrCorrupt: checksum mismatch, or a structural inconsistency inside
	// the body (bad section tag, out-of-bounds length, trailing bytes).
	ErrCorrupt = errors.New("snapshot: corrupt body")
)

// Snapshotter is implemented by every state-owning component that
// participates in a snapshot, mirroring check.Auditable: SnapshotState
// appends the component's complete mutable state to the encoder and
// RestoreState reads it back into a freshly constructed (same-config)
// receiver. Restore must validate sizes against the receiver's
// config-derived structure rather than allocating from decoded values, check
// every element on its way in (the body's digest is only verified once all
// of it has been read), and copy what it keeps out of the blocks a column
// arrives in: they are the decoder's window. A receiver whose RestoreState
// failed is part-written and must be dropped.
type Snapshotter interface {
	SnapshotState(enc *Encoder) error
	RestoreState(dec *Decoder) error
}

// PutI32, PutI64, I32 and I64 write and read element i of a block of a
// 32- or 64-bit column.
func PutI32(b []byte, i int, v int32) { binary.LittleEndian.PutUint32(b[i*4:], uint32(v)) }
func PutI64(b []byte, i int, v int64) { binary.LittleEndian.PutUint64(b[i*8:], uint64(v)) }
func I32(b []byte, i int) int32       { return int32(binary.LittleEndian.Uint32(b[i*4:])) }
func I64(b []byte, i int) int64       { return int64(binary.LittleEndian.Uint64(b[i*8:])) }

// Encoder writes a container as a stream: the body passes through one
// window, hashed and written out (packed, for a checkpoint) each time the
// window fills, and Finish patches its length and SHA-256 into the header.
// Methods never fail; the first error is kept for Finish.
type Encoder struct {
	out    pieces           // the header, then the payload as it is produced
	hdr    [headerSize]byte // the first piece; Finish patches the length and digest into the blob
	sum    hash.Hash        // over the body flushed so far
	packed bool             // the payload is packed segments, not the body as it is
	win    []byte           // body bytes not yet hashed and written
	pk     []byte           // the payload of the column blocks last packed
	size   int64            // body bytes flushed
	err    error
}

// NewEncoder returns an encoder of a snapshot (AXSN) container, whose
// payload is packed.
func NewEncoder() *Encoder { return newEncoder(magic, Version, flagPacked) }

// NewRawContainer returns an encoder of a container carrying an arbitrary
// 4-byte magic and format version, its body stored as it is (no flag set) —
// the same layout, determinism and hardening as snapshot containers, for the
// other versioned binary artifacts (the trace-v2 workload container and the
// sample series). Open is its inverse.
func NewRawContainer(containerMagic string, version uint32) *Encoder {
	return newEncoder(containerMagic, version, 0)
}

func newEncoder(containerMagic string, version, flags uint32) *Encoder {
	e := &Encoder{sum: sha256.New(), win: make([]byte, 0, windowBytes)}
	if len(containerMagic) != 4 {
		e.err = fmt.Errorf("%w: magic %q must be 4 bytes", ErrFormat, containerMagic)
		return e
	}
	copy(e.hdr[:4], containerMagic)
	binary.LittleEndian.PutUint32(e.hdr[4:], version)
	binary.LittleEndian.PutUint32(e.hdr[8:], flags)
	e.out = append(make(pieces, 0, 2), e.hdr[:]) // the first piece, full: the payload starts a new one
	e.packed = flags&flagPacked != 0
	return e
}

// pieces collects a container whose length is not known until it ends, in
// windowBytes pieces that never move — a buffer that doubled would, by the
// end, have allocated twice what it holds and copied as much.
type pieces [][]byte

func (p *pieces) Write(b []byte) (int, error) {
	for rest := b; len(rest) > 0; {
		i := len(*p) - 1
		if i < 0 || len((*p)[i]) == cap((*p)[i]) {
			*p = append(*p, make([]byte, 0, windowBytes))
			i++
		}
		last := (*p)[i]
		k := copy(last[len(last):cap(last)], rest)
		(*p)[i], rest = last[:len(last)+k], rest[k:]
	}
	return len(b), nil
}

// flush hashes and writes out the window, as a raw segment of a packed
// payload. The hash is a stream: where one window ends and the next begins
// does not show in it.
func (e *Encoder) flush() {
	if e.err == nil && len(e.win) > 0 {
		e.sum.Write(e.win)
		if e.packed {
			var hdr [1 + binary.MaxVarintLen64]byte
			hdr[0] = segRaw
			e.out.Write(hdr[:1+binary.PutUvarint(hdr[1:], uint64(len(e.win)))])
		}
		e.out.Write(e.win)
	}
	e.size += int64(len(e.win))
	e.win = e.win[:0]
}

// room returns the next n bytes of the body, at most a window's worth, for
// the caller to fill before its next Encoder call.
func (e *Encoder) room(n int) []byte {
	if cap(e.win)-len(e.win) < n {
		e.flush()
	}
	w := len(e.win)
	e.win = e.win[:w+n]
	return e.win[w:]
}

func (e *Encoder) u32(v uint32) { binary.LittleEndian.PutUint32(e.room(4), v) }

func (e *Encoder) u64(v uint64) { binary.LittleEndian.PutUint64(e.room(8), v) }

// Column writes a column of n elements of elemSize bytes: the count, then
// the elements, which fill produces a block at a time in order — dst is a
// whole number of elements, the first of them element first of the column,
// and every byte of it is fill's to write. It is how a component serialises
// one column of an array of structs without building the column first.
//
// A packed payload's column of 1-, 4- or 8-byte elements is a column
// segment: the window, emptied first, holds a block at a time, which is
// hashed and packed. A raw container's column larger than the window is
// filled in place: the output becomes one piece that ends exactly where the
// column does, and each block is hashed where it will stay.
func (e *Encoder) Column(n, elemSize int, fill func(dst []byte, first int)) {
	if e.packed && packable(elemSize) {
		e.packColumn(n, elemSize, fill)
		return
	}
	e.u64(uint64(n))
	if !e.packed && e.err == nil && n*elemSize > windowBytes {
		out := e.reserve(n * elemSize)
		for first := 0; first < n; {
			k := min(n-first, windowBytes/elemSize)
			dst := out[len(out) : len(out)+k*elemSize]
			fill(dst, first)
			e.sum.Write(dst)
			out = out[:len(out)+len(dst)]
			first += k
		}
		e.out[0] = out
		e.size += int64(n * elemSize)
		return
	}
	for first := 0; first < n; {
		k := min(n-first, (cap(e.win)-len(e.win))/elemSize)
		if k == 0 {
			e.flush()
			continue
		}
		fill(e.room(k*elemSize), first)
		first += k
	}
}

// packColumn writes a column segment: its header and count, then the
// column's blocks, packed a window at a time.
func (e *Encoder) packColumn(n, elemSize int, fill func(dst []byte, first int)) {
	e.flush()
	var hdr [10]byte
	hdr[0], hdr[1] = segColumn, byte(elemSize)
	binary.LittleEndian.PutUint64(hdr[2:], uint64(n))
	e.sum.Write(hdr[2:])
	e.out.Write(hdr[:])
	for first := 0; first < n; {
		k := min(n-first, windowBytes/elemSize) // whole blocks, but for the column's last
		dst := e.win[:k*elemSize]
		fill(dst, first)
		e.sum.Write(dst)
		e.pk = packColumn(e.pk[:0], dst, elemSize)
		e.out.Write(e.pk)
		first += k
	}
	e.size += 8 + int64(n)*int64(elemSize)
}

// reserve hashes the window and moves it, behind every piece written so far,
// into one new piece with exactly n bytes of room left, which becomes the
// whole output; the window is left empty.
func (e *Encoder) reserve(n int) []byte {
	e.sum.Write(e.win)
	e.size += int64(len(e.win))
	held := len(e.win) + n
	for _, p := range e.out {
		held += len(p)
	}
	out := make([]byte, 0, held)
	for _, p := range e.out {
		out = append(out, p...)
	}
	out = append(out, e.win...)
	e.out, e.win = append(e.out[:0], out), e.win[:0]
	return out
}

// Tag writes a named section marker. Decoders verify the same name at the
// same position, catching writer/reader drift.
func (e *Encoder) Tag(name string) { e.Str(name) }

// Bool writes a boolean as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.room(1)[0] = v }

// I32 writes a fixed-width 32-bit integer.
func (e *Encoder) I32(v int32) { e.u32(uint32(v)) }

// I64 writes a fixed-width 64-bit integer.
func (e *Encoder) I64(v int64) { e.u64(uint64(v)) }

// F64 writes an IEEE-754 double.
func (e *Encoder) F64(v float64) { e.u64(math.Float64bits(v)) }

// Str writes a length-prefixed UTF-8 string.
func (e *Encoder) Str(s string) {
	e.u32(uint32(len(s)))
	for len(s) > 0 {
		if len(e.win) == cap(e.win) {
			e.flush()
		}
		n := copy(e.win[len(e.win):cap(e.win)], s)
		e.win, s = e.win[:len(e.win)+n], s[n:]
	}
}

// I32s writes a length-prefixed []int32.
func (e *Encoder) I32s(v []int32) {
	e.Column(len(v), 4, func(dst []byte, first int) {
		for i, x := range v[first : first+len(dst)/4] {
			PutI32(dst, i, x)
		}
	})
}

// I64s writes a length-prefixed []int64.
func (e *Encoder) I64s(v []int64) { I64Column(e, v) }

// I64Column writes a table of any 64-bit integer type as a 64-bit column.
func I64Column[T ~int64](e *Encoder, col []T) {
	e.Column(len(col), 8, func(dst []byte, first int) {
		for i, v := range col[first : first+len(dst)/8] {
			PutI64(dst, i, int64(v))
		}
	})
}

// F64s writes a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.Column(len(v), 8, func(dst []byte, first int) {
		for i := range len(dst) / 8 {
			PutI64(dst, i, int64(math.Float64bits(v[first+i])))
		}
	})
}

// Finish seals the container — the last window, then the body's length and
// SHA-256 into the header — and returns it. The encoder is spent.
func (e *Encoder) Finish() ([]byte, error) {
	e.flush()
	if e.err == nil && e.size > maxBody {
		e.err = fmt.Errorf("%w: body %d bytes exceeds %d", ErrFormat, e.size, maxBody)
	}
	if e.err != nil {
		return nil, e.err
	}
	blob := e.out[0]
	if len(e.out) > 1 || cap(blob) == headerSize {
		blob = bytes.Join(e.out, nil) // one slice of exactly the container's length
	} // else a reserved column ended the container, and its piece is exact
	binary.LittleEndian.PutUint64(blob[12:], uint64(e.size))
	e.sum.Sum(blob[:20])
	return blob, nil
}

// Decoder reads a container's body as a stream, with a sticky error: after
// the first failure every subsequent read returns a zero value and
// Err/Finish report the original cause. Callers may therefore decode a whole
// section and check the error once. What a Decoder has handed out is only
// known to be the body the header's digest names once Finish returns nil.
type Decoder struct {
	src   io.Reader // unpacks or inflates the payload; nil once it has ended, and for a stored body, which is its own window
	win   []byte    // win[r:w] has been unpacked or inflated and hashed and is not yet handed out
	r, w  int
	off   int64     // body bytes handed out
	got   int64     // body bytes unpacked or inflated
	ulen  int64     // the body length the header declares
	bound int64     // the most the body can hold: ulen, or less when the payload cannot expand to it
	sum   hash.Hash // over the got bytes
	want  [sha256.Size]byte
	err   error
}

// NewDecoder validates the header of a snapshot (AXSN) container and returns
// a decoder positioned at the first byte of its body. Hostile inputs yield a
// typed error, never a panic, and expansion work is bounded by the declared
// (capped) body length.
func NewDecoder(blob []byte) (*Decoder, error) { return Open(magic, Version, blob) }

// maxInflate is DEFLATE's largest possible expansion: a 258-byte match
// costs at least two bits.
const maxInflate = 1032

// Open is the inverse of NewEncoder and NewRawContainer: it validates the
// header of a container carrying the given magic and version (magic,
// version, flags, plausible length) and returns a decoder over its body,
// with the same hostile-input hardening as snapshot decoding. The body's
// length and SHA-256 are checked by Finish.
func Open(containerMagic string, wantVersion uint32, blob []byte) (*Decoder, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(blob), headerSize)
	}
	if string(blob[:4]) != containerMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, blob[:4])
	}
	version := binary.LittleEndian.Uint32(blob[4:8])
	if version != wantVersion {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrVersion, version, wantVersion)
	}
	flags := binary.LittleEndian.Uint32(blob[8:12])
	if flags&^uint32(knownFlags) != 0 || flags == knownFlags {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrFormat, flags)
	}
	ulen := binary.LittleEndian.Uint64(blob[12:20])
	if ulen > maxBody {
		return nil, fmt.Errorf("%w: implausible body length %d", ErrFormat, ulen)
	}
	d := &Decoder{ulen: int64(ulen), sum: sha256.New()}
	copy(d.want[:], blob[20:headerSize])
	payload := blob[headerSize:]
	// A count is believed only as far as the payload present could expand,
	// so a hostile length cannot drive a receiver's allocation.
	switch {
	case flags&flagPacked != 0:
		d.bound = int64(min(ulen, maxUnpack*uint64(len(payload))))
		d.src = &unpacker{p: payload}
		d.win = make([]byte, windowBytes)
		return d, nil
	case flags&flagCompressed != 0:
		d.bound = int64(min(ulen, maxInflate*uint64(len(payload))))
		d.src = flate.NewReader(bytes.NewReader(payload))
		d.win = make([]byte, windowBytes)
		return d, nil
	}
	if uint64(len(payload)) != ulen {
		return nil, fmt.Errorf("%w: body is %d bytes, header says %d", ErrCorrupt, len(payload), ulen)
	}
	// A stored body is read where it lies, never written to.
	d.win, d.w, d.got, d.bound = payload, len(payload), d.ulen, d.ulen
	d.sum.Write(payload)
	return d, nil
}

// BodyLen returns the body length the header of a container
// declares — what Finish will hold the body to — or 0 for a blob too short
// to have a header.
func BodyLen(blob []byte) int64 {
	if len(blob) < headerSize {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(blob[12:20]))
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish reports the sticky error; otherwise it is where the container is
// verified: ErrCorrupt if decoding stopped short of the body's end (trailing
// bytes mean writer/reader drift), if the payload holds less or more than
// the declared length — an overrun is refused without inflating further —
// or if the SHA-256 of what was read is not the header's.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != d.ulen {
		d.fail("%d trailing bytes", d.ulen-d.off)
	}
	for d.err == nil && d.src != nil {
		d.r, d.w = 0, 0
		d.inflate()
	}
	if d.err == nil && [sha256.Size]byte(d.sum.Sum(nil)) != d.want {
		d.fail("checksum mismatch")
	}
	return d.err
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

// inflate reads once from the source, unpacking or inflating, into the free
// end of the window. It asks for no more than one byte beyond the declared
// length: that byte is where a body that overruns it shows.
func (d *Decoder) inflate() {
	room := d.win[d.w:min(int64(len(d.win)), int64(d.w)+d.ulen+1-d.got)]
	n, err := d.src.Read(room)
	d.sum.Write(room[:n])
	d.w += n
	d.got += int64(n)
	switch {
	case d.got > d.ulen:
		d.fail("body overruns the %d bytes the header says", d.ulen)
	case err == io.EOF:
		d.src = nil
		if d.got != d.ulen {
			d.fail("body is %d bytes, header says %d", d.got, d.ulen)
		}
	case err != nil:
		d.fail("payload: %v", err)
	}
}

// fill makes the window hold at least n unread bytes, n no more than the
// window; it reports false, with the sticky error armed, if the body ends
// first.
func (d *Decoder) fill(n int) bool {
	if d.src != nil {
		d.w = copy(d.win, d.win[d.r:d.w])
		d.r = 0
	}
	for d.w-d.r < n && d.err == nil {
		if d.src == nil {
			d.fail("need %d bytes, %d remain", n, d.w-d.r)
			break
		}
		d.inflate()
	}
	return d.err == nil
}

// need returns the next n body bytes, n no more than the window, or nil
// after arming the sticky error.
func (d *Decoder) need(n int) []byte {
	if d.err != nil || (d.w-d.r < n && !d.fill(n)) {
		return nil
	}
	b := d.win[d.r : d.r+n]
	d.r += n
	d.off += int64(n)
	return b
}

// Count reads the u64 count of a column of elemSize-byte elements, bounding
// it by the bytes the body can still hold so a hostile prefix cannot drive
// allocation. The elements follow, to be read by Blocks or field by field.
func (d *Decoder) Count(elemSize int) int {
	b := d.need(8)
	if b == nil {
		return 0
	}
	n := binary.LittleEndian.Uint64(b)
	if n > uint64(d.remain()/int64(elemSize)) {
		d.fail("length %d exceeds remaining body", n)
		return 0
	}
	return int(n)
}

// remain is the most the body can still hold.
func (d *Decoder) remain() int64 { return max(d.bound-d.off, 0) }

// Blocks reads the next n elements of elemSize bytes and hands them to each
// in order, a window's worth at most at a time: src is a whole number of
// elements, the first of them element first of the n. src is the decoder's
// window — read-only, and gone when each returns. An error from each becomes
// the sticky error and ends the read.
func (d *Decoder) Blocks(n, elemSize int, each func(src []byte, first int) error) {
	for first := 0; first < n && d.err == nil; {
		k := min(n-first, (d.w-d.r)/elemSize)
		if k == 0 {
			d.fill(min(n-first, len(d.win)/elemSize) * elemSize)
			continue
		}
		if err := each(d.need(k*elemSize), first); err != nil {
			d.err = err
		}
		first += k
	}
}

// Column reads a column written by Encoder.Column into a receiver that
// holds want elements — any number if want is negative — through Blocks,
// and returns the count. A count that is not want is refused before any
// element is read.
func (d *Decoder) Column(elemSize, want int, each func(src []byte, first int) error) int {
	n := d.Count(elemSize)
	if d.err == nil && want >= 0 && n != want {
		d.fail("column of %d elements, receiver holds %d", n, want)
	}
	d.Blocks(n, elemSize, each)
	if d.err != nil {
		return 0
	}
	return n
}

// Tag consumes a section marker and fails the decode if it does not match.
func (d *Decoder) Tag(want string) {
	got := d.Str()
	if d.err == nil && got != want {
		d.fail("section tag %q, want %q", got, want)
	}
}

// Bool reads a boolean; any byte other than 0 or 1 is corrupt.
func (d *Decoder) Bool() bool {
	b := d.need(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bad bool byte %#x", b[0])
	return false
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.need(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// I32 reads a fixed-width 32-bit integer.
func (d *Decoder) I32() int32 {
	b := d.need(4)
	if b == nil {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(b))
}

// I64 reads a fixed-width 64-bit integer.
func (d *Decoder) I64() int64 {
	b := d.need(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// F64 reads an IEEE-754 double.
func (d *Decoder) F64() float64 { return math.Float64frombits(uint64(d.I64())) }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	b := d.need(4)
	if b == nil {
		return ""
	}
	n := int64(binary.LittleEndian.Uint32(b))
	if n > d.remain() {
		d.fail("string length %d exceeds remaining body", n)
		return ""
	}
	if n <= int64(len(d.win)) {
		return string(d.need(int(n)))
	}
	var s []byte // grows as the bytes arrive, not by the length claimed
	d.Blocks(int(n), 1, func(src []byte, _ int) error {
		s = append(s, src...)
		return nil
	})
	return string(s)
}

// column reads a column of any length into a slice that grows as the blocks
// arrive, never by the count claimed.
func column[T any](d *Decoder, elemSize int, at func(b []byte, i int) T) []T {
	out := []T{}
	d.Column(elemSize, -1, func(src []byte, _ int) error {
		out = slices.Grow(out, len(src)/elemSize)
		for i := range len(src) / elemSize {
			out = append(out, at(src, i))
		}
		return nil
	})
	if d.err != nil {
		return nil
	}
	return out
}

// I32s reads a length-prefixed []int32.
func (d *Decoder) I32s() []int32 { return column(d, 4, I32) }

// I64s reads a length-prefixed []int64.
func (d *Decoder) I64s() []int64 { return column(d, 8, I64) }

// F64s reads a length-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	return column(d, 8, func(b []byte, i int) float64 { return math.Float64frombits(uint64(I64(b, i))) })
}
