package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"runtime/debug"
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
	e.Column(3, 1, func(dst []byte, _ int) { copy(dst, []byte{1, 2, 3}) })
	e.I32s([]int32{-1, 0, 1})
	e.I64s([]int64{-9, 9})
	e.F64s([]float64{0.25, -0.5})
	blob, err := e.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return blob
}

// readSample reads what writeSample wrote, reporting any value that came back
// wrong, and returns Finish's verdict on the container.
func readSample(t *testing.T, d *Decoder) error {
	t.Helper()
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
	d.Column(1, 3, func(src []byte, _ int) error {
		if !bytes.Equal(src, []byte{1, 2, 3}) {
			t.Errorf("bytes = %v", src)
		}
		return nil
	})
	if got := d.I32s(); len(got) != 3 || got[0] != -1 || got[2] != 1 {
		t.Errorf("i32s = %v", got)
	}
	if got := d.I64s(); len(got) != 2 || got[0] != -9 || got[1] != 9 {
		t.Errorf("i64s = %v", got)
	}
	if got := d.F64s(); len(got) != 2 || got[0] != 0.25 || got[1] != -0.5 {
		t.Errorf("f64s = %v", got)
	}
	return d.Finish()
}

func TestRoundTripPrimitives(t *testing.T) {
	d, err := NewDecoder(writeSample(t))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if err := readSample(t, d); err != nil {
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
	// Truncating the compressed payload corrupts the stream: the header still
	// opens, and the decode ends in ErrCorrupt at Finish at the latest.
	d, err := NewDecoder(blob[:len(blob)-3])
	if err != nil {
		t.Fatalf("NewDecoder of a whole header: %v", err)
	}
	if d.Tag("sample"); d.Err() == nil {
		for d.Err() == nil {
			d.U8()
		}
	}
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
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
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Every value reads back right; only Finish can tell.
	if err := readSample(t, d); !errors.Is(err, ErrCorrupt) {
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

// TestSealRawRoundTrip: a raw container is the one sealRaw builds by hand —
// the flags word clear, the body verbatim behind the header — Open reads it
// back, and the same body sealed compressed is smaller and reads the same.
func TestSealRawRoundTrip(t *testing.T) {
	const n = 3 * windowBytes / 8 // a column that spans several windows
	fill := func(e *Encoder) []byte {
		e.Tag("raw")
		e.Column(n, 8, func(dst []byte, first int) {
			for i := range len(dst) / 8 {
				PutI64(dst, i, int64(first+i)*7)
			}
		})
		e.Str("tail")
		blob, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	raw, packed := fill(NewRawContainer(magic, Version)), fill(NewEncoder())
	if body := raw[headerSize:]; !bytes.Equal(raw, sealRaw(body)) || len(body) != 4+3+8+8*n+4+4 {
		t.Fatalf("raw container of %d bytes is not the hand-built one", len(raw))
	}
	if len(packed) >= len(raw) {
		t.Fatalf("compressed container is %d bytes, raw %d", len(packed), len(raw))
	}
	for name, blob := range map[string][]byte{"raw": raw, "compressed": packed} {
		d, err := Open(magic, Version, blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d.Tag("raw")
		last := int64(-1)
		got := d.Column(8, n, func(src []byte, first int) error {
			last = I64(src, len(src)/8-1)
			return nil
		})
		if got != n || last != int64(n-1)*7 {
			t.Errorf("%s: column of %d ending in %d", name, got, last)
		}
		if got := d.Str(); got != "tail" || d.Finish() != nil {
			t.Errorf("%s: tail %q, %v", name, got, d.Finish())
		}
	}
	if _, err := NewRawContainer("toolong", Version).Finish(); !errors.Is(err, ErrFormat) {
		t.Errorf("a container with a 7-byte magic: %v", err)
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

// Columns filled and read a block at a time are the same format as the slice
// methods: a column written either way reads back either way, and the two
// encodings are the same body — the same header, length and digest. (The
// payloads differ: only a column is packed, and a count and elements written
// as fields are not.)
func TestColumnsMatchSlices(t *testing.T) {
	i32 := []int32{-3, 0, 1 << 30}
	i64 := []int64{-1 << 62, 7, 0, 42}
	raw := []byte{9, 8, 7}

	slices := NewEncoder()
	slices.I64(int64(len(raw))) // a count is a u64; the elements may follow as fields
	for _, b := range raw {
		slices.U8(b)
	}
	slices.I32s(i32)
	slices.I64s(i64)
	want, err := slices.Finish()
	if err != nil {
		t.Fatal(err)
	}

	cols := NewEncoder()
	cols.Column(len(raw), 1, func(dst []byte, first int) { copy(dst, raw[first:]) })
	cols.Column(len(i32), 4, func(dst []byte, first int) {
		for i := range len(dst) / 4 {
			PutI32(dst, i, i32[first+i])
		}
	})
	cols.I64(int64(len(i64)))
	for _, v := range i64 {
		cols.I64(v)
	}
	got, err := cols.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:headerSize], want[:headerSize]) {
		t.Fatal("column-encoded body differs from the slice-encoded one")
	}

	d, err := NewDecoder(got)
	if err != nil {
		t.Fatal(err)
	}
	d.Column(1, len(raw), func(src []byte, first int) error {
		if !bytes.Equal(src, raw[first:first+len(src)]) {
			t.Errorf("bytes block at %d = %v", first, src)
		}
		return nil
	})
	back32 := make([]int32, len(i32))
	if n := d.Column(4, -1, func(src []byte, first int) error {
		for i := range len(src) / 4 {
			back32[first+i] = I32(src, i)
		}
		return nil
	}); n != len(i32) {
		t.Fatalf("i32 column holds %d elements, want %d", n, len(i32))
	}
	if n := d.Count(8); n != len(i64) {
		t.Fatalf("i64 column holds %d elements, want %d", n, len(i64))
	}
	for i, v := range i64 {
		if got := d.I64(); got != v {
			t.Errorf("i64[%d] = %d, want %d", i, got, v)
		}
	}
	for i, v := range i32 {
		if back32[i] != v {
			t.Errorf("i32[%d] = %d, want %d", i, back32[i], v)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// A column's count is bounded by the bytes that remain, like a slice's, and
// held to the receiver's: a hostile or a foreign count arms the sticky
// error before any block is handed out.
func TestColumnRejectsHostileLength(t *testing.T) {
	for name, tc := range map[string]struct {
		count uint64
		want  int
	}{"beyond the body": {1 << 40, -1}, "not the receiver's": {1, 2}} {
		body := binary.LittleEndian.AppendUint64(nil, tc.count)
		body = append(body, make([]byte, 8)...)
		d, err := NewDecoder(sealRaw(body))
		if err != nil {
			t.Fatal(err)
		}
		n := d.Column(8, tc.want, func([]byte, int) error {
			t.Errorf("%s: a block was handed out", name)
			return nil
		})
		if n != 0 || !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("%s: column of %d elements, err %v; want none and ErrCorrupt", name, n, d.Err())
		}
	}
}

// Nothing is sized from the header: a 60-byte container claiming the largest
// body the format allows, and a column as long, is rejected after allocating
// a window and next to nothing else.
func TestOpenHostileLengthAllocatesLittle(t *testing.T) {
	blob := writeSample(t)[:headerSize+8]
	binary.LittleEndian.PutUint64(blob[12:20], maxBody)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	d.Tag("sample")
	d.I64s()
	err = d.Finish()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-byte container claiming %d bytes made Open allocate %d", len(blob), uint64(maxBody), got)
	}
}

// recordColumn is a column of n 21-byte records, each a function of its
// index, written into whatever blocks the encoder hands out.
func recordColumn(e *Encoder, n int) {
	e.Column(n, 21, func(dst []byte, first int) {
		for i := range len(dst) / 21 {
			rec, x := dst[i*21:][:21], uint64(first+i)
			binary.LittleEndian.PutUint64(rec, x*0x9e3779b97f4a7c15)
			rec[8] = byte(x)
			binary.LittleEndian.PutUint64(rec[9:], x<<20|x)
			binary.LittleEndian.PutUint32(rec[17:], uint32(x*7+1))
		}
	})
}

// TestRawColumnReservedInPlace: a raw container whose last column is larger
// than a window is filled where it stays and handed back as one exact piece,
// allocating the container and the window and next to nothing else. The
// reservation moves no byte: every container here, the raw ones around it
// and a packed one, seals to the digest the encoder gave it before raw
// columns were reserved (the packed one, to the digest it had when packing
// replaced DEFLATE).
func TestRawColumnReservedInPlace(t *testing.T) {
	const big = 2*windowBytes/21 + 1000 // spans three windows
	seal := func(e *Encoder, n int, tail bool) []byte {
		e.Tag("meta")
		e.Str("pinned")
		e.I64(-5)
		recordColumn(e, n)
		if tail {
			e.Tag("tail")
			e.I64s([]int64{3, 1, 4})
		}
		blob, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	raw := func() *Encoder { return NewRawContainer("TEST", 7) }
	for _, tc := range []struct {
		name string
		blob []byte
		want string
	}{
		{"raw, ends in a big column", seal(raw(), big, false), "29a7f5ca931063f5e5735869c61458cd874d088eebad92140514fa72646725b3"},
		{"raw, a section after a big column", seal(raw(), big, true), "75d010c7b7d22461895a02da479bdca486122ada8c00423f7e761b9504b15e50"},
		{"raw, a column under a window", seal(raw(), 1000, true), "da7bf2be3a4ba7a453672968be2a553946d22bcc09940cec303a8c5dbc1cc092"},
		{"packed, a big column", seal(newEncoder("TEST", 7, flagPacked), big, true), "dc30420f0c3b43f50939dfe579fa3409a713a3c08ceff024017446b62f88de44"},
	} {
		if got := hex.EncodeToString(sha(tc.blob)); got != tc.want {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", tc.name, len(tc.blob), got, tc.want)
		}
	}

	blob := seal(raw(), big, false)
	if len(blob) != cap(blob) {
		t.Errorf("a raw container ending in a big column is %d bytes in a %d-byte piece", len(blob), cap(blob))
	}
	if raceEnabled() {
		return // allocation sizes under -race are the detector's
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 4
	for range runs {
		seal(raw(), big, false)
	}
	runtime.ReadMemStats(&after)
	// The allocator rounds a large object up to whole 8 KiB pages, and the
	// encoder's own state — itself, its hash, its piece list — is a few
	// hundred bytes.
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(blob) + windowBytes + 8<<10); perRun > limit {
		t.Errorf("sealing a %d-byte raw container allocated %d bytes, want at most %d (the container, one window and 8 KiB)", len(blob), perRun, limit)
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which allocation sizes are the detector's as much as the code's.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
