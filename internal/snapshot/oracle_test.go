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
	"math/rand"
	"testing"
)

// oracleSeal and oracleOpen are the whole-body codec the stream replaced,
// kept as its reference: seal hashed and deflated a finished body in one go,
// open inflated all of it into one buffer sized from the header and verified
// the SHA-256 before a decoder saw a byte. A raw container is the same byte
// string whichever of the two wrote it, and each reads the other's. A packed
// payload depends on the calls that wrote the body, so the oracle only opens
// one, with oracleUnpack: the packed form's rules, a bit at a time.
func oracleSeal(containerMagic string, version uint32, body []byte, flags uint32) []byte {
	var hdr [headerSize]byte
	copy(hdr[:4], containerMagic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], flags)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(body)))
	sum := sha256.Sum256(body)
	copy(hdr[20:], sum[:])
	if flags&flagCompressed == 0 {
		return append(hdr[:], body...)
	}
	out := bytes.NewBuffer(hdr[:])
	fw, err := flate.NewWriter(out, flate.BestSpeed)
	if err != nil {
		panic(err)
	}
	fw.Write(body)
	if err := fw.Close(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

func oracleOpen(containerMagic string, wantVersion uint32, blob []byte) ([]byte, error) {
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
	if flags == knownFlags {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrFormat, flags)
	}
	if flags&flagPacked != 0 {
		var err error
		if body, err = oracleUnpack(payload, min(ulen, maxUnpack*uint64(len(payload)))+1); err != nil {
			return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
		}
		if uint64(len(body)) != ulen {
			return nil, fmt.Errorf("%w: body is %d bytes, header says %d", ErrCorrupt, len(body), ulen)
		}
	} else if flags&flagCompressed != 0 {
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
		body = bytes.Clone(payload)
	}
	if sha256.Sum256(body) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return body, nil
}

// oracleUnpack spells out a packed payload, one bit at a time, stopping
// once the body is longer than limit.
func oracleUnpack(p []byte, limit uint64) ([]byte, error) {
	var body []byte
	take := func(n int) ([]byte, error) {
		if len(p) < n {
			return nil, io.ErrUnexpectedEOF
		}
		b := p[:n]
		p = p[n:]
		return b, nil
	}
	le := func(b []byte) uint64 { // little-endian, any width up to 8
		var v uint64
		for i := len(b) - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		return v
	}
	for len(p) > 0 && uint64(len(body)) <= limit {
		kind, _ := take(1)
		switch kind[0] {
		case segRaw:
			n, w := binary.Uvarint(p)
			if w <= 0 || n > uint64(len(p)-w) {
				return nil, io.ErrUnexpectedEOF
			}
			raw, _ := take(w + int(n))
			body = append(body, raw[w:]...)
		case segColumn:
			h, err := take(9)
			if err != nil {
				return nil, err
			}
			elem, count := int(h[0]), le(h[1:])
			if elem != 1 && elem != 4 && elem != 8 {
				return nil, fmt.Errorf("column of %d-byte elements", elem)
			}
			body = append(body, h[1:]...)
			for left := count; left > 0 && uint64(len(body)) <= limit; {
				k := int(min(left, blockLen))
				left -= uint64(k)
				h, err := take(2 + elem)
				if err != nil {
					return nil, err
				}
				width, exc := int(h[0]), int(h[1+elem])
				shift := 64 - 8*elem
				base := uint64(int64(le(h[1:1+elem])<<shift) >> shift) // sign-extended
				if width > 8*elem || exc >= k {
					return nil, fmt.Errorf("block %d bits wide with %d exceptions", width, exc)
				}
				packed, err := take((k*width + 7) / 8)
				if err != nil {
					return nil, err
				}
				bit := func(i int) uint64 { return uint64(packed[i/8]>>(i%8)) & 1 }
				vals := make([]uint64, k)
				for i := range vals {
					var off uint64
					for j := range width {
						off |= bit(i*width+j) << j
					}
					if off > uint64(math.MaxInt64>>shift)-base {
						return nil, fmt.Errorf("element %d does not fit", i)
					}
					vals[i] = base + off
				}
				for i := k * width; i < 8*len(packed); i++ {
					if bit(i) != 0 {
						return nil, fmt.Errorf("padding bit %d set", i)
					}
				}
				prev := -1
				for range exc {
					x, err := take(1 + elem)
					if err != nil {
						return nil, err
					}
					i := int(x[0])
					if i <= prev || i >= k || vals[i] != base {
						return nil, fmt.Errorf("exception at %d", i)
					}
					vals[i], prev = le(x[1:]), i
				}
				for _, v := range vals {
					for j := range elem {
						body = append(body, byte(v>>(8*j)))
					}
				}
			}
		default:
			return nil, fmt.Errorf("segment kind %d", kind[0])
		}
	}
	return body, nil
}

// A field of a generated body: written to an Encoder, appended to the flat
// body the oracle seals, and read back from a Decoder.
type field struct {
	write  func(e *Encoder)
	append func(body []byte) []byte
	read   func(d *Decoder) error
}

func i64Field(v int64) field {
	return field{
		func(e *Encoder) { e.I64(v) },
		func(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) },
		func(d *Decoder) error {
			if got := d.I64(); got != v {
				return fmt.Errorf("i64 %d, want %d", got, v)
			}
			return nil
		},
	}
}

func u8Field(v uint8) field {
	return field{
		func(e *Encoder) { e.U8(v) },
		func(b []byte) []byte { return append(b, v) },
		func(d *Decoder) error {
			if got := d.U8(); got != v {
				return fmt.Errorf("u8 %d, want %d", got, v)
			}
			return nil
		},
	}
}

func strField(s string) field {
	return field{
		func(e *Encoder) { e.Str(s) },
		func(b []byte) []byte { return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...) },
		func(d *Decoder) error {
			if got := d.Str(); got != s {
				return fmt.Errorf("string of %d bytes, want %d", len(got), len(s))
			}
			return nil
		},
	}
}

// columnField is n elements of elemSize bytes, every byte a function of its
// position in the column, so a block handed out at the wrong place shows.
func columnField(n, elemSize int, salt byte) field {
	at := func(i int) byte { return byte(i*7) ^ byte(i>>8) ^ salt }
	return field{
		func(e *Encoder) {
			e.Column(n, elemSize, func(dst []byte, first int) {
				if len(dst)%elemSize != 0 || len(dst) > windowBytes {
					panic(fmt.Sprintf("block of %d bytes for %d-byte elements", len(dst), elemSize))
				}
				for i := range dst {
					dst[i] = at(first*elemSize + i)
				}
			})
		},
		func(b []byte) []byte {
			b = binary.LittleEndian.AppendUint64(b, uint64(n))
			for i := range n * elemSize {
				b = append(b, at(i))
			}
			return b
		},
		func(d *Decoder) error {
			next := 0
			got := d.Column(elemSize, n, func(src []byte, first int) error {
				if first != next || len(src)%elemSize != 0 || len(src) == 0 {
					return fmt.Errorf("block of %d bytes at element %d, want a whole number from %d", len(src), first, next)
				}
				for i, v := range src {
					if v != at(first*elemSize+i) {
						return fmt.Errorf("element %d byte %d is %#x", first+i/elemSize, i%elemSize, v)
					}
				}
				next += len(src) / elemSize
				return nil
			})
			if d.Err() == nil && (got != n || next != n) {
				return fmt.Errorf("column of %d elements in blocks covering %d, want %d", got, next, n)
			}
			return d.Err()
		},
	}
}

// generatedBodies are the shapes the stream has edges at: nothing, one byte,
// a body that ends one short of, on and one past the window, fields and
// elements that straddle its end, and columns many windows long.
func generatedBodies() map[string][]field {
	pad := func(n int) field { return columnField(n-8, 1, 0x5a) } // n bytes with its count
	bodies := map[string][]field{
		"empty":                          nil,
		"one byte":                       {u8Field(7)},
		"window - 1":                     {pad(windowBytes - 1)},
		"window":                         {pad(windowBytes)},
		"window + 1":                     {pad(windowBytes + 1)},
		"i64 across the window's end":    {pad(windowBytes - 3), i64Field(-2)},
		"string across the window's end": {pad(windowBytes - 10), strField("straddles the end of the window")},
		"string longer than the window":  {u8Field(1), strField(string(make([]byte, windowBytes+4097))), i64Field(3)},
		"count at the window's end":      {pad(windowBytes - 8), columnField(1000, 8, 1)},
		"21-byte records over many windows": {
			strField("reqs"), columnField(5*windowBytes/21+11, 21, 2), u8Field(9),
		},
		"columns back to back": {
			columnField(3*windowBytes, 1, 3), columnField(windowBytes/4+1, 4, 4), columnField(2*windowBytes/8, 8, 5),
			columnField(0, 8, 6), i64Field(1 << 40),
		},
	}
	rng := rand.New(rand.NewSource(23))
	for i := range 8 {
		var fs []field
		for range 1 + rng.Intn(12) {
			switch rng.Intn(4) {
			case 0:
				fs = append(fs, i64Field(rng.Int63()))
			case 1:
				fs = append(fs, u8Field(uint8(rng.Intn(256))))
			case 2:
				fs = append(fs, strField(string(make([]byte, rng.Intn(300)))))
			default:
				elem := []int{1, 4, 8, 21}[rng.Intn(4)]
				fs = append(fs, columnField(rng.Intn(2*windowBytes/elem), elem, byte(i)))
			}
		}
		bodies[fmt.Sprintf("random %d", i)] = fs
	}
	return bodies
}

// TestStreamMatchesWholeBodyOracle: for every generated body, raw and
// packed, the streamed container is the one the whole-body seal wrote — byte
// for byte when raw, and under the same header but for the flags when packed
// — and the whole-body open reads it back to the same body; the streaming
// decoder reads it, and the oracle's DEFLATE container of the body.
func TestStreamMatchesWholeBodyOracle(t *testing.T) {
	for name, fields := range generatedBodies() {
		var body []byte
		for _, f := range fields {
			body = f.append(body)
		}
		for _, flags := range []uint32{0, flagPacked, flagCompressed} {
			t.Run(fmt.Sprintf("%s/flags=%d", name, flags), func(t *testing.T) {
				want := oracleSeal("ORCL", 3, body, flags)
				if flags != flagCompressed {
					e := newEncoder("ORCL", 3, flags)
					for _, f := range fields {
						f.write(e)
					}
					got, err := e.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if flags == flagPacked {
						want = append(bytes.Clone(want[:headerSize]), got[headerSize:]...)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("the stream sealed %d bytes, the oracle %d: not the same container", len(got), len(want))
					}
					if back, err := oracleOpen("ORCL", 3, got); err != nil || !bytes.Equal(back, body) {
						t.Fatalf("the oracle reads the stream's container as %d bytes, %v; want the %d-byte body", len(back), err, len(body))
					}
				}
				d, err := Open("ORCL", 3, want)
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range fields {
					if err := f.read(d); err != nil {
						t.Fatalf("field %d: %v", i, err)
					}
				}
				if err := d.Finish(); err != nil {
					t.Fatalf("Finish: %v", err)
				}
			})
		}
	}
}

// TestStreamRefusesWhatTheOracleRefuses: a container, raw, packed or
// DEFLATE, with a byte flipped or its tail cut is refused by both — by the oracle at open, by the stream no
// later than Finish — with the same sentinel.
func TestStreamRefusesWhatTheOracleRefuses(t *testing.T) {
	fields := []field{strField("head"), columnField(windowBytes/8+100, 8, 9), i64Field(5)}
	var body []byte
	for _, f := range fields {
		body = f.append(body)
	}
	decode := func(blob []byte) error {
		d, err := Open("ORCL", 3, blob)
		if err != nil {
			return err
		}
		// A receiver that checks nothing: wrong values are the digest's to catch.
		d.Str()
		d.Column(8, -1, func([]byte, int) error { return nil })
		d.I64()
		return d.Finish()
	}
	for _, flags := range []uint32{0, flagPacked, flagCompressed} {
		blob, step := oracleSeal("ORCL", 3, body, flags), 509
		if flags == flagPacked { // the oracle unpacks a bit at a time: fewer, wider steps
			step = 2039
			e := newEncoder("ORCL", 3, flags)
			for _, f := range fields {
				f.write(e)
			}
			blob, _ = e.Finish()
		}
		for at := 0; at < len(blob); at += step {
			for _, damaged := range [][]byte{flipped(blob, at), blob[:at]} {
				_, want := oracleOpen("ORCL", 3, damaged)
				got := decode(damaged)
				if want == nil || got == nil {
					t.Fatalf("flags %d, byte %d: oracle %v, stream %v; want both to refuse", flags, at, want, got)
				}
				for _, sentinel := range []error{ErrTruncated, ErrFormat, ErrVersion, ErrCorrupt} {
					if errors.Is(want, sentinel) != errors.Is(got, sentinel) {
						t.Fatalf("flags %d, byte %d: oracle %v, stream %v", flags, at, want, got)
					}
				}
			}
		}
	}
}

func flipped(blob []byte, at int) []byte {
	b := bytes.Clone(blob)
	b[at] ^= 0x10
	return b
}

// TestOverrunInflatesOneWindowAtMost: a payload that inflates to far more
// than the header declares is refused having inflated at most one window
// past the declared length, whether the reader stops at the declared end or
// keeps asking.
func TestOverrunInflatesOneWindowAtMost(t *testing.T) {
	const declared = 1000
	blob := oracleSeal(magic, Version, make([]byte, 16<<20), flagCompressed) // 16 MiB of zeros in a few KB
	binary.LittleEndian.PutUint64(blob[12:], declared)
	for name, read := range map[string]func(d *Decoder){
		"stops at the declared end": func(d *Decoder) { d.Blocks(declared, 1, func([]byte, int) error { return nil }) },
		"keeps asking": func(d *Decoder) {
			for d.Err() == nil {
				d.I64()
			}
		},
	} {
		d, err := NewDecoder(blob)
		if err != nil {
			t.Fatal(err)
		}
		read(d)
		if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Finish = %v, want ErrCorrupt", name, err)
		}
		if d.got > declared+windowBytes {
			t.Errorf("%s: inflated %d bytes of a body declared as %d", name, d.got, declared)
		}
	}
}
