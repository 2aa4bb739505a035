package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
)

// packedRoundTrip seals col, n elements of elemSize bytes, as one column of
// a checkpoint, reads it back and returns the elements it came back as, and
// the container.
func packedRoundTrip(t testing.TB, col []byte, elemSize int) ([]byte, []byte) {
	t.Helper()
	n := len(col) / elemSize
	e := NewEncoder()
	e.Tag("col")
	e.Column(n, elemSize, func(dst []byte, first int) { copy(dst, col[first*elemSize:]) })
	e.Tag("end")
	blob, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	d.Tag("col")
	back := []byte{}
	d.Column(elemSize, n, func(src []byte, first int) error {
		if first*elemSize != len(back) {
			return fmt.Errorf("block at element %d after %d bytes", first, len(back))
		}
		back = append(back, src...)
		return nil
	})
	d.Tag("end")
	if err := d.Finish(); err != nil {
		t.Fatalf("%d %d-byte elements: %v", n, elemSize, err)
	}
	return back, blob
}

// elems builds a column of n elemSize-byte elements from their values.
func elems(elemSize, n int, at func(i int) uint64) []byte {
	b := make([]byte, n*elemSize)
	for i := range n {
		putElement(b, i, elemSize, at(i))
	}
	return b
}

// TestPackedColumnRoundTrip: columns at the packer's edges — every element
// equal, runs that step by ±1, the extremes of each width, exceptions at a
// block's first and last element, every length around a block, and one
// that ends part of the way into a window — come back as they went in, and
// seal to the body a raw container of the same writes holds.
func TestPackedColumnRoundTrip(t *testing.T) {
	window8 := windowBytes/8 + 77 // a count that is not a multiple of the window
	cases := map[string]struct {
		elem int
		col  []byte
	}{
		"all equal":    {8, elems(8, 1000, func(int) uint64 { return 42 })},
		"all -1":       {4, elems(4, 300, func(int) uint64 { return math.MaxUint32 })},
		"+1 run":       {4, elems(4, 1000, func(i int) uint64 { return uint64(i + 5) })},
		"-1 run":       {8, elems(8, 1000, func(i int) uint64 { return uint64(int64(500 - i)) })},
		"±1 alternate": {4, elems(4, 1000, func(i int) uint64 { return uint64(int32(i%2*2 - 1)) })},
		"int64 extremes": {8, elems(8, 300, func(i int) uint64 {
			return []uint64{1 << 63, math.MaxInt64, 0, math.MaxUint64}[i%4] // MinInt64, MaxInt64, 0, -1
		})},
		"int32 extremes": {4, elems(4, 300, func(i int) uint64 {
			return []uint64{1 << 31, math.MaxInt32, 0, math.MaxUint32}[i%4] // MinInt32, MaxInt32, 0, -1
		})},
		"byte extremes":     {1, elems(1, 300, func(i int) uint64 { return []uint64{0, 255, 128, 127}[i%4] })},
		"one outlier":       {8, elems(8, 256, func(i int) uint64 { return uint64(i%128/127) << 60 })},
		"outlier at base":   {4, elems(4, 256, func(i int) uint64 { return uint64(1000 + i - 1000*(i%128/127)) })},
		"every width":       {8, elems(8, 65*128, func(i int) uint64 { return uint64(i%128) << (i / 128) >> 7 })},
		"window and a part": {8, elems(8, window8, func(i int) uint64 { return uint64(i * i) })},
		"bytes, windows":    {1, elems(1, 3*windowBytes+5, func(i int) uint64 { return uint64(i * 7 % 5) })},
	}
	for _, n := range []int{0, 1, 127, 128, 129} {
		for _, elem := range []int{1, 4, 8} {
			cases[fmt.Sprintf("%d of %d bytes", n, elem)] = struct {
				elem int
				col  []byte
			}{elem, elems(elem, n, func(i int) uint64 { return uint64(i * 37) })}
		}
	}
	for name, tc := range cases {
		back, blob := packedRoundTrip(t, tc.col, tc.elem)
		if !bytes.Equal(back, tc.col) {
			t.Errorf("%s: the column came back changed", name)
			continue
		}
		raw := NewRawContainer(magic, Version)
		raw.Tag("col")
		raw.Column(len(tc.col)/tc.elem, tc.elem, func(dst []byte, first int) { copy(dst, tc.col[first*tc.elem:]) })
		raw.Tag("end")
		want, err := raw.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob[12:headerSize], want[12:headerSize]) {
			t.Errorf("%s: the packed container's body is not the raw one's", name)
		}
	}
	// Equal elements cost a block header per block, not a byte each.
	_, blob := packedRoundTrip(t, elems(8, 1<<16, func(int) uint64 { return 7 }), 8)
	if limit := 16 + 1<<16/blockLen*10 + 200; len(blob) > limit {
		t.Errorf("64 Ki equal 8-byte elements packed to %d bytes, want at most %d", len(blob), limit)
	}
}

// A packed container with payload p around a body of n bytes; the digest is
// of n zero bytes, which no refusal below ever reaches.
func packedBlob(p []byte, n int) []byte {
	blob := sealRaw(make([]byte, n))
	binary.LittleEndian.PutUint32(blob[8:], flagPacked)
	return append(blob[:headerSize], p...)
}

// colSeg is a column segment header of count elemSize-byte elements.
func colSeg(elemSize int, count uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{segColumn, byte(elemSize)}, count)
}

// blk is a block: its width, its base as elemSize bytes, its exception count,
// then the rest as given (offsets and exceptions).
func blk(width, elemSize int, base uint64, exc int, rest ...byte) []byte {
	b := []byte{byte(width)}
	b = append(b, elems(elemSize, 1, func(int) uint64 { return base })...)
	return append(append(b, byte(exc)), rest...)
}

// TestPackedColumnRefusals: every block and segment the packed form forbids,
// and every truncation of a real payload, is refused with a typed error —
// ErrCorrupt, since the header is whole — never a panic.
func TestPackedColumnRefusals(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := map[string]struct {
		p []byte
		n int // the body's length in the header
	}{
		"width past 32 bits":         {cat(colSeg(4, 2), blk(33, 4, 0, 0, make([]byte, 9)...)), 16},
		"width past 8 bits":          {cat(colSeg(1, 1), blk(9, 1, 0, 0, 0, 0)), 9},
		"width past 64 bits":         {cat(colSeg(8, 1), blk(65, 8, 0, 0, make([]byte, 9)...)), 16},
		"exceptions past the block":  {cat(colSeg(4, 2), blk(0, 4, 0, 3, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 2, 1, 0, 0, 0)), 16},
		"every element an exception": {cat(colSeg(4, 2), blk(0, 4, 0, 2, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0)), 16},
		"exceptions descending":      {cat(colSeg(1, 3), blk(0, 1, 0, 2, 2, 9, 1, 9)), 11},
		"exceptions repeated":        {cat(colSeg(1, 3), blk(0, 1, 0, 2, 1, 9, 1, 9)), 11},
		"exception past the end":     {cat(colSeg(1, 3), blk(0, 1, 0, 1, 3, 9)), 11},
		"exception over an offset":   {cat(colSeg(1, 3), blk(2, 1, 0, 1, 0b000100, 1, 9)), 11},
		"byte past 127":              {cat(colSeg(1, 2), blk(4, 1, 120, 0, 0x80)), 10},
		"int32 past MaxInt32":        {cat(colSeg(4, 2), blk(8, 4, math.MaxInt32-5, 0, 0, 6)), 16},
		"int64 past MaxInt64":        {cat(colSeg(8, 2), blk(8, 8, math.MaxInt64-5, 0, 0, 6)), 24},
		"-1 plus 1 past a byte":      {cat(colSeg(1, 2), blk(8, 1, 0xff, 0, 0, 129)), 10},
		"padding bits set":           {cat(colSeg(1, 3), blk(1, 1, 0, 0, 0b1000)), 11},
		"3-byte elements":            {cat(colSeg(3, 1), blk(0, 1, 0, 0, 0, 0)), 11},
		"segment kind 2":             {[]byte{2, 0}, 1},
		"raw segment past the end":   {[]byte{segRaw, 5, 1, 2}, 5},
		"raw length cut":             {[]byte{segRaw, 0x80}, 5},
		"column header cut":          {colSeg(4, 2)[:6], 16},
		"block header cut":           {cat(colSeg(8, 2), blk(3, 8, 0, 0)[:5]), 24},
		"offsets cut":                {cat(colSeg(8, 100), blk(3, 8, 0, 0, 1, 2)), 808},
		"exceptions cut":             {cat(colSeg(1, 3), blk(0, 1, 0, 2, 0, 9)), 11},
		"count past the body":        {cat(colSeg(1, maxBody+1)), 8},
	}
	// Every cut of a real payload, a header and more.
	col := elems(4, 300, func(i int) uint64 { return uint64(i*i) | uint64(i%100/99)<<31 })
	_, whole := packedRoundTrip(t, col, 4)
	for cut := headerSize; cut < len(whole); cut++ {
		cases[fmt.Sprintf("cut at %d of %d", cut, len(whole))] = struct {
			p []byte
			n int
		}{whole[headerSize:cut], int(BodyLen(whole))}
	}
	for name, tc := range cases {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			d, err := Open(magic, Version, packedBlob(tc.p, tc.n))
			if err != nil {
				return err
			}
			for d.Err() == nil {
				d.U8()
			}
			return d.Finish()
		}()
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	// The honest forms of the hand-built blocks open: what is refused above
	// is the rule broken, not the hand-building.
	for name, tc := range map[string]struct {
		p    []byte
		body []byte
	}{
		"two exceptions":   {cat(colSeg(1, 3), blk(0, 1, 0, 2, 1, 9, 2, 9)), cat(colSeg(1, 3)[2:], []byte{0, 9, 9})},
		"a 2-bit block":    {cat(colSeg(1, 3), blk(2, 1, 5, 0, 0b100100)), cat(colSeg(1, 3)[2:], []byte{5, 6, 7})},
		"the int32 limit":  {cat(colSeg(4, 2), blk(8, 4, math.MaxInt32-5, 0, 0, 5)), cat(colSeg(4, 2)[2:], elems(4, 2, func(i int) uint64 { return math.MaxInt32 - 5 + 5*uint64(i) }))},
		"-1 to 127":        {cat(colSeg(1, 2), blk(8, 1, 0xff, 0, 0, 128)), cat(colSeg(1, 2)[2:], []byte{0xff, 127})},
		"a raw segment":    {[]byte{segRaw, 3, 7, 8, 9}, []byte{7, 8, 9}},
		"the byte maximum": {cat(colSeg(1, 2), blk(4, 1, 120, 0, 0x70)), cat(colSeg(1, 2)[2:], []byte{120, 127})},
	} {
		blob := packedBlob(tc.p, len(tc.body))
		copy(blob[20:], sha(tc.body))
		d, err := NewDecoder(blob)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		d.Blocks(len(tc.body), 1, func(src []byte, _ int) error { got = append(got, src...); return nil })
		if err := d.Finish(); err != nil || !bytes.Equal(got, tc.body) {
			t.Errorf("%s: %v, body %v; want %v", name, err, got, tc.body)
		}
	}
}

// FuzzPackedColumn: whatever the elements, a column sealed packed reads back
// as it went in. The seeds are the edges of TestPackedColumnRoundTrip.
func FuzzPackedColumn(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), elems(4, 129, func(i int) uint64 { return uint64(int32(i%2*2 - 1)) }))
	f.Add(uint8(2), elems(8, 130, func(i int) uint64 { return []uint64{1 << 63, math.MaxInt64, 0}[i%3] }))
	f.Add(uint8(0), elems(1, 300, func(i int) uint64 { return uint64(i % 3 * 127) }))
	f.Add(uint8(2), elems(8, 256, func(i int) uint64 { return uint64(i%128/127) << 60 }))
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		elem := []int{1, 4, 8}[sel%3]
		col := data[:len(data)/elem*elem]
		if back, _ := packedRoundTrip(t, col, elem); !bytes.Equal(back, col) {
			t.Fatalf("%d %d-byte elements came back changed", len(col)/elem, elem)
		}
	})
}
