// Package snapshot implements the versioned binary codec for warm-state
// simulator snapshots. A snapshot captures the complete mutable state of an
// aged device — flash array, mapping tables, allocator and GC state, DRAM
// caches, host cache and chip clocks — so that a sweep can age once and fork
// every variant replay from the checkpoint instead of re-aging (DESIGN §13).
//
// Container layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "AXSN"
//	4       4     format version (currently 1)
//	8       4     flags (bit 0: body is DEFLATE-compressed)
//	12      8     uncompressed body length in bytes
//	20      32    SHA-256 of the uncompressed body
//	52      ...   body (compressed when flag bit 0 is set)
//
// The body is a flat sequence of fixed-width primitives and length-prefixed
// slices produced by Encoder and consumed by Decoder. Section tags (Tag)
// are embedded as strings and verified on decode, so a structural mismatch
// between writer and reader fails loudly instead of misinterpreting bytes.
// A slice is a slab — a u64 count, then fixed-width little-endian elements
// — which the Encoder lets a component fill in place (ByteSlab, I32Slab,
// I64Slab) and the Decoder hands back as a read-only view of the body
// (BytesView, I32View, I64View), so a column is never copied on its way
// between a component's arrays and the body.
//
// Determinism: every encoder input is produced in a canonical order (sparse
// tables are serialised in ascending key order), DEFLATE at a fixed level is
// deterministic for a given input, and the checksum covers the uncompressed
// body — so encode→decode→encode reproduces the container byte for byte. The decoder is hardened against hostile inputs (fuzzed by
// FuzzSnapshotDecode): it never allocates from header-claimed sizes beyond
// what the input actually contains, bounds every read, and returns typed
// errors instead of panicking.
package snapshot

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Version is the snapshot format version written by this package. Decoders
// reject any other version with ErrVersion.
const Version = 1

const (
	magic      = "AXSN"
	headerSize = 4 + 4 + 4 + 8 + sha256.Size

	flagCompressed = 1 << 0
	knownFlags     = flagCompressed

	// maxBody bounds the uncompressed body length a decoder will accept.
	// A full Table 1 device serialises to well under 1 GiB; the cap stops
	// decompression bombs long before they hurt.
	maxBody = 1 << 31
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
// config-derived structure rather than allocating from decoded values, and
// must copy whatever it keeps out of the decoder's views: the body under
// them is read-only, and a kept view would pin all of it. A receiver whose
// RestoreState failed is part-written and must be dropped.
type Snapshotter interface {
	SnapshotState(enc *Encoder) error
	RestoreState(dec *Decoder) error
}

// Encoder builds a snapshot body. Methods never fail; Finish seals the
// container (checksum + compression + header) and returns the blob.
//
// The body is a list of chunks and never moves: a write takes the room left
// in the last chunk or opens a new one — chunkBytes for small fields, its
// own size for a big column. One growing buffer recopied everything before
// each column as it reallocated, and that transient set the peak memory of
// a process that snapshots a large device.
type Encoder struct {
	chunks [][]byte
	size   int // body length: the sum of the chunks' lengths
}

const chunkBytes = 64 << 10

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// extend appends n zero bytes to the body and returns them for the caller
// to fill in.
func (e *Encoder) extend(n int) []byte {
	last := len(e.chunks) - 1
	if last < 0 || cap(e.chunks[last])-len(e.chunks[last]) < n {
		e.chunks = append(e.chunks, make([]byte, 0, max(n, chunkBytes)))
		last++
	}
	c := e.chunks[last]
	e.chunks[last] = c[:len(c)+n]
	e.size += n
	return e.chunks[last][len(c):]
}

func (e *Encoder) u32(v uint32) { binary.LittleEndian.PutUint32(e.extend(4), v) }

func (e *Encoder) u64(v uint64) { binary.LittleEndian.PutUint64(e.extend(8), v) }

// Slab writes the count prefix of an n-element slab and returns its
// n*elemSize data bytes, all zero, for the caller to fill in place — the
// way a component serialises one column of an array of structs without
// building the column first, or a stream its fixed-width records. The
// window is valid only until the next Encoder call.
func (e *Encoder) Slab(n, elemSize int) []byte {
	e.u64(uint64(n))
	return e.extend(n * elemSize)
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
func (e *Encoder) U8(v uint8) { e.extend(1)[0] = v }

// I32 writes a fixed-width 32-bit integer.
func (e *Encoder) I32(v int32) { e.u32(uint32(v)) }

// I64 writes a fixed-width 64-bit integer.
func (e *Encoder) I64(v int64) { e.u64(uint64(v)) }

// F64 writes an IEEE-754 double.
func (e *Encoder) F64(v float64) { e.u64(math.Float64bits(v)) }

// Str writes a length-prefixed UTF-8 string.
func (e *Encoder) Str(s string) {
	e.u32(uint32(len(s)))
	copy(e.extend(len(s)), s)
}

// Bytes writes a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) { copy(e.ByteSlab(len(b)), b) }

// I32s writes a length-prefixed []int32.
func (e *Encoder) I32s(v []int32) {
	w := e.I32Slab(len(v))
	for i, x := range v {
		w.Set(i, x)
	}
}

// I64s writes a length-prefixed []int64.
func (e *Encoder) I64s(v []int64) {
	w := e.I64Slab(len(v))
	for i, x := range v {
		w.Set(i, x)
	}
}

// F64s writes a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	w := e.I64Slab(len(v))
	for i, x := range v {
		w.Set(i, int64(math.Float64bits(x)))
	}
}

// ByteSlab, I32Slab and I64Slab are Slab for a []byte, []int32 or []int64
// column.
func (e *Encoder) ByteSlab(n int) []byte { return e.Slab(n, 1) }

func (e *Encoder) I32Slab(n int) I32Slab { return I32Slab{e.Slab(n, 4)} }

func (e *Encoder) I64Slab(n int) I64Slab { return I64Slab{e.Slab(n, 8)} }

// I32Slab is the write window of one []int32 slab inside an encoder's body.
type I32Slab struct{ b []byte }

// Set stores element i.
func (s I32Slab) Set(i int, v int32) { binary.LittleEndian.PutUint32(s.b[i*4:], uint32(v)) }

// I64Slab is the write window of one []int64 slab inside an encoder's body.
type I64Slab struct{ b []byte }

// Set stores element i.
func (s I64Slab) Set(i int, v int64) { binary.LittleEndian.PutUint64(s.b[i*8:], uint64(v)) }

// Finish seals the body into a self-describing snapshot (AXSN) container:
// header with version, flags, uncompressed length and SHA-256 of the
// uncompressed body, followed by the DEFLATE-compressed body.
func (e *Encoder) Finish() ([]byte, error) {
	return Seal(magic, Version, e)
}

// Seal seals an encoder's body into a container carrying an arbitrary
// 4-byte magic and format version — the same layout, determinism and
// hardening as snapshot containers, reusable by other versioned binary
// artifacts (the trace-v2 workload container is one). Open is its inverse.
func Seal(containerMagic string, version uint32, e *Encoder) ([]byte, error) {
	return seal(containerMagic, version, e, flagCompressed)
}

// SealRaw is Seal with the body stored as it is (flag bit 0 clear): for a
// small artifact written on a hot path, where DEFLATE would cost more than
// the bytes it saves. Open reads either.
func SealRaw(containerMagic string, version uint32, e *Encoder) ([]byte, error) {
	return seal(containerMagic, version, e, 0)
}

func seal(containerMagic string, version uint32, e *Encoder, flags uint32) ([]byte, error) {
	if len(containerMagic) != 4 {
		return nil, fmt.Errorf("%w: magic %q must be 4 bytes", ErrFormat, containerMagic)
	}
	if e.size > maxBody {
		return nil, fmt.Errorf("%w: body %d bytes exceeds %d", ErrFormat, e.size, maxBody)
	}
	// Hash and deflate are streams: chunk boundaries do not show in the output.
	sum := sha256.New()
	for _, c := range e.chunks {
		sum.Write(c)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], containerMagic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], flags)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(e.size))
	sum.Sum(hdr[:20])

	if flags&flagCompressed == 0 {
		out := append(make([]byte, 0, headerSize+e.size), hdr[:]...)
		for _, c := range e.chunks {
			out = append(out, c...)
		}
		return out, nil
	}
	// Header and compressed body go into one buffer, sized for the 9:1 or
	// better an aged device compresses at so it rarely regrows.
	out := bytes.NewBuffer(make([]byte, 0, headerSize+e.size/8))
	out.Write(hdr[:])
	fw, err := flate.NewWriter(out, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	for _, c := range e.chunks {
		if _, err := fw.Write(c); err != nil {
			return nil, err
		}
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Decoder reads a snapshot body with a sticky error: after the first
// failure every subsequent read returns a zero value and Err/Finish report
// the original cause. Callers may therefore decode a whole section and
// check the error once.
type Decoder struct {
	body []byte
	off  int
	err  error
}

// NewDecoder validates a snapshot (AXSN) container (magic, version, flags,
// length, checksum), decompresses the body, and returns a decoder positioned
// at the first byte. Hostile inputs yield a typed error, never a panic, and
// decompression work is bounded by the declared (capped) body length.
func NewDecoder(blob []byte) (*Decoder, error) { return Open(magic, Version, blob) }

// Open is the inverse of Seal: it validates a container carrying the given
// magic and version and returns a decoder over its body, with the same
// hostile-input hardening as snapshot decoding.
func Open(containerMagic string, wantVersion uint32, blob []byte) (*Decoder, error) {
	body, err := open(containerMagic, wantVersion, blob)
	if err != nil {
		return nil, err
	}
	return &Decoder{body: body}, nil
}

// maxInflate is DEFLATE's largest possible expansion: a 258-byte match
// costs at least two bits.
const maxInflate = 1032

func open(containerMagic string, wantVersion uint32, blob []byte) ([]byte, error) {
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
	if flags&^uint32(knownFlags) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrFormat, flags)
	}
	ulen := binary.LittleEndian.Uint64(blob[12:20])
	if ulen > maxBody {
		return nil, fmt.Errorf("%w: implausible body length %d", ErrFormat, ulen)
	}
	var sum [sha256.Size]byte
	copy(sum[:], blob[20:20+sha256.Size])

	var body []byte
	payload := blob[headerSize:]
	if flags&flagCompressed != 0 {
		// One buffer, sized from the header but never beyond what the payload
		// present could inflate to, so a hostile length cannot drive
		// allocation. The extra byte is where a body that overruns its
		// declared length shows: it is rejected without inflating further.
		body = make([]byte, min(ulen, maxInflate*uint64(len(payload)))+1)
		fr := flate.NewReader(bytes.NewReader(payload))
		n := 0
		var err error
		for n < len(body) && err == nil {
			var m int
			m, err = fr.Read(body[n:])
			n += m
		}
		fr.Close()
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
		}
		if uint64(n) != ulen {
			return nil, fmt.Errorf("%w: body is %d bytes, header says %d", ErrCorrupt, n, ulen)
		}
		body = body[:n]
	} else {
		if uint64(len(payload)) != ulen {
			return nil, fmt.Errorf("%w: body is %d bytes, header says %d", ErrCorrupt, len(payload), ulen)
		}
		body = bytes.Clone(payload) // a decoder's views must not change when the caller's blob does
	}
	if sha256.Sum256(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return body, nil
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish reports the sticky error, or ErrCorrupt if decoding stopped short
// of the body's end (trailing bytes mean writer/reader drift).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.body) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.body)-d.off)
	}
	return nil
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

// need returns the next n body bytes, or nil after arming the sticky error.
func (d *Decoder) need(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.body)-d.off < n {
		d.fail("need %d bytes, %d remain", n, len(d.body)-d.off)
		return nil
	}
	b := d.body[d.off : d.off+n]
	d.off += n
	return b
}

// count reads a u64 length prefix for elements of elemSize bytes, bounding
// it by the bytes actually remaining so hostile prefixes cannot drive
// allocation.
func (d *Decoder) count(elemSize int) int {
	b := d.need(8)
	if b == nil {
		return 0
	}
	n := binary.LittleEndian.Uint64(b)
	if n > uint64((len(d.body)-d.off)/elemSize) {
		d.fail("length %d exceeds remaining body", n)
		return 0
	}
	return int(n)
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
func (d *Decoder) F64() float64 {
	b := d.need(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	b := d.need(4)
	if b == nil {
		return ""
	}
	n := binary.LittleEndian.Uint32(b)
	if n > uint32(len(d.body)-d.off) {
		d.fail("string length %d exceeds remaining body", n)
		return ""
	}
	return string(d.need(int(n)))
}

// Bytes reads a length-prefixed byte slice (copied out of the body).
func (d *Decoder) Bytes() []byte { return bytes.Clone(d.BytesView()) }

// Slab reads a slab of elemSize-byte elements with one bounds check — the
// count is refused unless the body still holds that many — and returns it
// as a view of the body: no copy, no allocation, for a receiver to decode
// straight into its own arrays. A view is read-only (the body may be shared
// with other decoders) and must not be retained past the restore. After a
// decode error the view is empty.
func (d *Decoder) Slab(elemSize int) []byte { return d.need(elemSize * d.count(elemSize)) }

// BytesView, I32View and I64View are Slab for a []byte, []int32 or []int64
// column.
func (d *Decoder) BytesView() []byte { return d.Slab(1) }
func (d *Decoder) I32View() I32View  { return I32View{d.Slab(4)} }
func (d *Decoder) I64View() I64View  { return I64View{d.Slab(8)} }

// I32View is a read-only view of one []int32 slab of a body.
type I32View struct{ b []byte }

// Len returns the element count.
func (v I32View) Len() int { return len(v.b) / 4 }

// At returns element i.
func (v I32View) At(i int) int32 { return int32(binary.LittleEndian.Uint32(v.b[i*4:])) }

// CopyTo decodes the slab into dst, which must have Len elements.
func (v I32View) CopyTo(dst []int32) {
	for i := range dst {
		dst[i] = v.At(i)
	}
}

// I64View is a read-only view of one []int64 slab of a body.
type I64View struct{ b []byte }

// Len returns the element count.
func (v I64View) Len() int { return len(v.b) / 8 }

// At returns element i.
func (v I64View) At(i int) int64 { return int64(binary.LittleEndian.Uint64(v.b[i*8:])) }

// CopyTo decodes the slab into dst, which must have Len elements.
func (v I64View) CopyTo(dst []int64) {
	for i := range dst {
		dst[i] = v.At(i)
	}
}

// I32s reads a length-prefixed []int32.
func (d *Decoder) I32s() []int32 {
	v := d.I32View()
	if d.err != nil {
		return nil
	}
	out := make([]int32, v.Len())
	v.CopyTo(out)
	return out
}

// I64s reads a length-prefixed []int64.
func (d *Decoder) I64s() []int64 {
	v := d.I64View()
	if d.err != nil {
		return nil
	}
	out := make([]int64, v.Len())
	v.CopyTo(out)
	return out
}

// F64s reads a length-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	v := d.I64View()
	if d.err != nil {
		return nil
	}
	out := make([]float64, v.Len())
	for i := range out {
		out[i] = math.Float64frombits(uint64(v.At(i)))
	}
	return out
}
