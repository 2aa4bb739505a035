package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// writeSample encodes one of every primitive and returns the sealed blob.
func writeSample(t *testing.T) []byte {
	t.Helper()
	e := NewEncoder()
	e.Tag("sample")
	e.Bool(true)
	e.Bool(false)
	e.U8(0xAB)
	e.I32(-7)
	e.I64(1 << 40)
	e.F64(3.5)
	e.Str("hello, snapshot")
	e.Bytes([]byte{1, 2, 3})
	e.I32s([]int32{-1, 0, 1})
	e.I64s([]int64{-9, 9})
	e.F64s([]float64{0.25, -0.5})
	blob, err := e.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return blob
}

func TestRoundTripPrimitives(t *testing.T) {
	blob := writeSample(t)
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	d.Tag("sample")
	if !d.Bool() || d.Bool() {
		t.Error("bool mismatch")
	}
	if got := d.U8(); got != 0xAB {
		t.Errorf("u8 = %#x", got)
	}
	if got := d.I32(); got != -7 {
		t.Errorf("i32 = %d", got)
	}
	if got := d.I64(); got != 1<<40 {
		t.Errorf("i64 = %d", got)
	}
	if got := d.F64(); got != 3.5 {
		t.Errorf("f64 = %v", got)
	}
	if got := d.Str(); got != "hello, snapshot" {
		t.Errorf("str = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes = %v", got)
	}
	if got := d.I32s(); len(got) != 3 || got[0] != -1 || got[2] != 1 {
		t.Errorf("i32s = %v", got)
	}
	if got := d.I64s(); len(got) != 2 || got[0] != -9 || got[1] != 9 {
		t.Errorf("i64s = %v", got)
	}
	if got := d.F64s(); len(got) != 2 || got[0] != 0.25 || got[1] != -0.5 {
		t.Errorf("f64s = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// Encoding is deterministic: the same writes always seal to the same bytes.
func TestEncodeDeterministic(t *testing.T) {
	a, b := writeSample(t), writeSample(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical encodes differ")
	}
}

func TestDecoderRejectsTruncatedContainer(t *testing.T) {
	blob := writeSample(t)
	for _, n := range []int{0, 1, 4, headerSize - 1} {
		if _, err := NewDecoder(blob[:n]); !errors.Is(err, ErrTruncated) {
			t.Errorf("len %d: err = %v, want ErrTruncated", n, err)
		}
	}
	// Truncating the compressed payload corrupts the stream.
	if _, err := NewDecoder(blob[:len(blob)-3]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated payload: err = %v, want ErrCorrupt", err)
	}
}

func TestDecoderRejectsBadMagic(t *testing.T) {
	blob := writeSample(t)
	blob[0] = 'Z'
	if _, err := NewDecoder(blob); !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
}

func TestDecoderRejectsVersionSkew(t *testing.T) {
	blob := writeSample(t)
	binary.LittleEndian.PutUint32(blob[4:8], Version+1)
	if _, err := NewDecoder(blob); !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
}

func TestDecoderRejectsUnknownFlags(t *testing.T) {
	blob := writeSample(t)
	binary.LittleEndian.PutUint32(blob[8:12], 0x80)
	if _, err := NewDecoder(blob); !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
}

func TestDecoderRejectsChecksumFlip(t *testing.T) {
	blob := writeSample(t)
	blob[20] ^= 0xFF // first checksum byte
	if _, err := NewDecoder(blob); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecoderRejectsImplausibleLength(t *testing.T) {
	blob := writeSample(t)
	binary.LittleEndian.PutUint64(blob[12:20], maxBody+1)
	if _, err := NewDecoder(blob); !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
}

// A wrong section tag, hostile length prefixes and over-reads all arm the
// sticky error instead of panicking, and zero values come back after it.
func TestDecoderStickyError(t *testing.T) {
	e := NewEncoder()
	e.Tag("alpha")
	e.I64(42)
	blob, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	d.Tag("beta") // mismatch arms the error
	if d.Err() == nil {
		t.Fatal("tag mismatch not detected")
	}
	if got := d.I64(); got != 0 {
		t.Errorf("post-error I64 = %d, want 0", got)
	}
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Finish = %v, want ErrCorrupt", err)
	}
}

func TestDecoderRejectsHostileSliceLength(t *testing.T) {
	e := NewEncoder()
	e.I64s([]int64{1})
	blob, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Read the honest slice's length prefix as a scalar, leaving one
	// element (8 bytes) in the body; then claim a huge slice.
	if n := d.I64(); n != 1 {
		t.Fatalf("length prefix = %d", n)
	}
	if got := d.I64s(); got != nil { // 8 bytes left: prefix consumed, no room for data
		t.Errorf("hostile slice = %v", got)
	}
	if d.Err() == nil {
		t.Error("hostile slice length not detected")
	}
}

func TestDecoderRejectsTrailingBytes(t *testing.T) {
	e := NewEncoder()
	e.I64(1)
	e.I64(2)
	blob, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	_ = d.I64()
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Finish = %v, want ErrCorrupt (trailing bytes)", err)
	}
}

func TestDecoderRejectsBadBool(t *testing.T) {
	e := NewEncoder()
	e.U8(7)
	blob, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bool(); d.Err() == nil {
		t.Error("bool byte 7 accepted")
	}
}

func TestDecoderUncompressedBody(t *testing.T) {
	// Hand-build an uncompressed container (flags = 0).
	body := make([]byte, 8)
	binary.LittleEndian.PutUint64(body, 99)
	blob := sealRaw(body)
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if got := d.I64(); got != 99 {
		t.Errorf("i64 = %d", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestSealRawRoundTrip: SealRaw writes the container sealRaw builds by hand
// — the flags word clear, the body's chunks verbatim behind the header — Open
// reads it back, and sealing the same encoder compressed is unaffected.
func TestSealRawRoundTrip(t *testing.T) {
	fill := func() *Encoder {
		e := NewEncoder()
		e.Tag("raw")
		col := e.I64Slab(3 * chunkBytes / 8) // a chunk of its own between two shared ones
		for i := 0; i < 3*chunkBytes/8; i++ {
			col.Set(i, int64(i)*7)
		}
		e.Str("tail")
		return e
	}
	e := fill()
	var body []byte
	for _, c := range e.chunks {
		body = append(body, c...)
	}
	raw, err := SealRaw(magic, Version, e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, sealRaw(body)) {
		t.Fatalf("SealRaw wrote %d bytes, the hand-built container is %d", len(raw), len(sealRaw(body)))
	}
	packed, err := Seal(magic, Version, e)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, _ := fill().Finish(); !bytes.Equal(packed, fresh) || len(packed) >= len(raw) {
		t.Fatalf("Seal after SealRaw wrote %d bytes, a fresh encoder %d, raw %d", len(packed), len(fresh), len(raw))
	}
	for name, blob := range map[string][]byte{"raw": raw, "compressed": packed} {
		d, err := Open(magic, Version, blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d.Tag("raw")
		col := d.I64View()
		if col.Len() != 3*chunkBytes/8 || col.At(col.Len()-1) != int64(col.Len()-1)*7 {
			t.Errorf("%s: column of %d", name, col.Len())
		}
		if got := d.Str(); got != "tail" || d.Finish() != nil {
			t.Errorf("%s: tail %q, %v", name, got, d.Finish())
		}
	}
	if _, err := SealRaw("toolong", Version, e); !errors.Is(err, ErrFormat) {
		t.Errorf("SealRaw with a 7-byte magic: %v", err)
	}
}

// sealRaw wraps a body in an uncompressed container (test helper mirroring
// what Finish does for the compressed path).
func sealRaw(body []byte) []byte {
	sum := sha(body)
	out := make([]byte, 0, headerSize+len(body))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, sum...)
	out = append(out, body...)
	return out
}

func sha(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}

// Slabs filled in place and views read in place are the same format as the
// slice methods: a column written either way reads back either way, and the
// two encodings are byte-identical.
func TestSlabsAndViewsMatchSlices(t *testing.T) {
	i32 := []int32{-3, 0, 1 << 30}
	i64 := []int64{-1 << 62, 7, 0, 42}
	raw := []byte{9, 8, 7}

	slices := NewEncoder()
	slices.Bytes(raw)
	slices.I32s(i32)
	slices.I64s(i64)
	want, err := slices.Finish()
	if err != nil {
		t.Fatal(err)
	}

	slabs := NewEncoder()
	copy(slabs.ByteSlab(len(raw)), raw)
	w32 := slabs.I32Slab(len(i32))
	for i, v := range i32 {
		w32.Set(i, v)
	}
	w64 := slabs.I64Slab(len(i64))
	for i, v := range i64 {
		w64.Set(i, v)
	}
	got, err := slabs.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("slab-encoded container differs from the slice-encoded one")
	}

	d, err := NewDecoder(got)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.BytesView(); !bytes.Equal(v, raw) {
		t.Errorf("bytes view = %v", v)
	}
	v32 := d.I32View()
	back32 := make([]int32, v32.Len())
	v32.CopyTo(back32)
	v64 := d.I64View()
	if v32.Len() != len(i32) || v64.Len() != len(i64) {
		t.Fatalf("views hold %d/%d elements, want %d/%d", v32.Len(), v64.Len(), len(i32), len(i64))
	}
	for i, v := range i32 {
		if back32[i] != v || v32.At(i) != v {
			t.Errorf("i32[%d] = %d / %d, want %d", i, back32[i], v32.At(i), v)
		}
	}
	for i, v := range i64 {
		if v64.At(i) != v {
			t.Errorf("i64[%d] = %d, want %d", i, v64.At(i), v)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// A view's length prefix is bounded by the bytes that remain, like a
// slice's: a hostile count arms the sticky error and yields an empty view.
func TestViewRejectsHostileLength(t *testing.T) {
	body := binary.LittleEndian.AppendUint64(nil, 1<<40)
	d, err := NewDecoder(sealRaw(body))
	if err != nil {
		t.Fatal(err)
	}
	if v := d.I64View(); v.Len() != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("view of %d elements, err %v; want empty and ErrCorrupt", v.Len(), d.Err())
	}
}

// The inflate buffer is sized from the header but capped by what the
// payload present could expand to: a 60-byte container claiming the largest
// body the format allows is rejected after allocating next to nothing.
func TestOpenHostileLengthAllocatesLittle(t *testing.T) {
	blob := writeSample(t)[:headerSize+8]
	binary.LittleEndian.PutUint64(blob[12:20], maxBody)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewDecoder(blob)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-byte container claiming %d bytes made Open allocate %d", len(blob), uint64(maxBody), got)
	}
}
