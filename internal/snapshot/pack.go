package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// The packed payload (flag bit 1) is a sequence of segments, each a kind
// byte and what that kind says, which together spell the body in order:
//
//	segRaw     uvarint n, then n body bytes as they are
//	segColumn  element size (1, 4 or 8), the column's u64 count as the body
//	           holds it, then ceil(count/blockLen) blocks
//
// A block is blockLen elements, fewer for the last of a column, read as
// two's-complement integers of the element's width:
//
//	width   1 byte: bits per offset, at most 8 × the element size
//	base    element-size bytes: the smallest element of the block
//	exc     1 byte: how many elements are exceptions, fewer than the block
//	offsets ceil(len × width / 8) bytes: element − base, LSB first; base
//	        plus an offset must fit the element
//	excs    exc × (index byte, then the element in full)
//
// An exception is an element whose offset is too wide for the block's width;
// its offset slot holds zero and its indices rise strictly. The encoder picks
// the width that makes the block smallest. Signed, the block minimum of a
// table's column is most often its "none" (-1), so a block of mostly empty
// entries is its few others as exceptions. Whatever a block could say two
// ways — padding bits, the offset slot of an exception — must be zero, so a
// flipped payload bit either changes the body, which the digest sees, or
// breaks a rule here.
const (
	segRaw    = 0
	segColumn = 1

	blockLen = 128

	// maxUnpack is the packed form's largest expansion: a block of 8-byte
	// elements, all equal, is 1024 body bytes in 10 payload bytes.
	maxUnpack = 103
)

// packable reports whether columns of elemSize-byte elements are packed.
func packable(elemSize int) bool { return elemSize == 1 || elemSize == 4 || elemSize == 8 }

// element reads element i of b as a signed integer of elemSize bytes.
func element(b []byte, i, elemSize int) int64 {
	switch elemSize {
	case 1:
		return int64(int8(b[i]))
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(b[i*4:])))
	}
	return int64(binary.LittleEndian.Uint64(b[i*8:]))
}

// putElement writes the low elemSize bytes of v as element i of b.
func putElement(b []byte, i, elemSize int, v uint64) {
	switch elemSize {
	case 1:
		b[i] = byte(v)
	case 4:
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
}

// maxElement is the largest value an element holds.
func maxElement(elemSize int) int64 { return math.MaxInt64 >> (64 - 8*elemSize) }

// packColumn appends the blocks of a column's elements — src, a whole number
// of elemSize-byte elements, a multiple of blockLen unless it ends the
// column — to out.
func packColumn(out, src []byte, elemSize int) []byte {
	var vals [blockLen]int64
	var offs [blockLen]uint64
	for n := len(src) / elemSize; n > 0; {
		k := min(n, blockLen)
		base, top := load(vals[:k], src, elemSize)
		out = packBlock(out, vals[:k], base, top, elemSize, &offs)
		src, n = src[k*elemSize:], n-k
	}
	return out
}

// load reads the first len(vals) elemSize-byte elements of src, signed,
// and returns the least and the greatest.
func load(vals []int64, src []byte, elemSize int) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	switch elemSize {
	case 1:
		for i := range vals {
			v := int64(int8(src[i]))
			vals[i], lo, hi = v, min(lo, v), max(hi, v)
		}
	case 4:
		for i := range vals {
			v := int64(int32(binary.LittleEndian.Uint32(src[4*i:])))
			vals[i], lo, hi = v, min(lo, v), max(hi, v)
		}
	default:
		for i := range vals {
			v := int64(binary.LittleEndian.Uint64(src[8*i:]))
			vals[i], lo, hi = v, min(lo, v), max(hi, v)
		}
	}
	return lo, hi
}

// packBlock appends one block: the elements vals, the least of them base and
// the greatest top.
func packBlock(out []byte, vals []int64, base, top int64, elemSize int, offs *[blockLen]uint64) []byte {
	k := len(vals)
	// The width is the one that minimises the packed offsets plus the
	// exceptions it leaves out. Any width below the widest leaves at least
	// the offsets as long as the widest out, and saves at most what the
	// widest costs: when those exceptions cost as much, the widest is best
	// and no other is weighed. Otherwise hist[l] counts the offsets l bits
	// long, in four interleaved tallies so that equal lengths do not wait on
	// each other.
	widest := bits.Len64(uint64(top - base))
	width := widest
	if widest > 0 {
		longest := 0
		for i, v := range vals {
			offs[i] = uint64(v - base) // wraps to the true difference
			longest += int(offs[i] >> (widest - 1))
		}
		cost := (k*widest + 7) / 8
		if longest*(1+elemSize) < cost {
			var hist [4][65]uint8
			for i, off := range offs[:k] {
				hist[i&3][bits.Len64(off)]++
			}
			left := 0
			for w := widest - 1; w >= 0; w-- {
				left += int(hist[0][w+1]) + int(hist[1][w+1]) + int(hist[2][w+1]) + int(hist[3][w+1])
				if c := (k*w+7)/8 + left*(1+elemSize); c < cost {
					width, cost = w, c
				}
			}
		}
	}
	out = append(out, byte(width))
	for b := range elemSize {
		out = append(out, byte(base>>(8*b)))
	}
	if width == widest {
		out = append(out, 0)
		return packBits(out, offs[:k], uint(width))
	}
	// Exceptions leave zero in their slots, and are listed after the offsets.
	// Whether an element is one is as likely as not in a block of a table's
	// "none" and its entries, so the scan does not branch on it.
	var excs [blockLen]uint8
	exc := 0
	for i := range k {
		over := offs[i] >> width
		e := int((over | -over) >> 63) // 1 for an exception
		excs[exc] = uint8(i)
		exc += e
		offs[i] &= uint64(e) - 1
	}
	out = append(out, byte(exc))
	out = packBits(out, offs[:k], uint(width))
	at := len(out)
	out = slices.Grow(out, exc*(1+elemSize))[:at+exc*(1+elemSize)]
	for _, i := range excs[:exc] {
		out[at] = i
		putElement(out[at+1:], 0, elemSize, uint64(vals[i]))
		at += 1 + elemSize
	}
	return out
}

// packBits appends the width-bit values of offs, LSB first, a word at a time.
func packBits(out []byte, offs []uint64, width uint) []byte {
	if width == 0 {
		return out
	}
	var acc uint64
	var have uint // bits of acc in use
	for _, v := range offs {
		acc |= v << have
		have += width
		if have >= 64 {
			out = binary.LittleEndian.AppendUint64(out, acc)
			have -= 64
			acc = v >> (width - have) // the bits of v that did not fit; 0 when none are left
		}
	}
	for ; have > 0; have -= min(have, 8) {
		out = append(out, byte(acc))
		acc >>= 8
	}
	return out
}

// errPayload is what a packed payload that breaks a rule of its layout
// says; the Decoder reports it as ErrCorrupt.
var errPayload = errors.New("packed payload")

func payloadErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errPayload, fmt.Sprintf(format, args...))
}

// unpacker reads a packed payload as the body it spells: an io.Reader that
// fills whatever it is handed, a block at a time, and stages only a count or
// a block that the rest of the reader's buffer cannot hold.
type unpacker struct {
	p      []byte // payload not yet read
	raw    int    // body bytes left in the current raw segment
	elem   int    // element size of the current column
	left   int    // elements left in the current column
	stage  [blockLen * 8]byte
	sr, sw int // stage[sr:sw] is unread
	offs   [blockLen]uint64
}

func (u *unpacker) Read(dst []byte) (int, error) {
	n := 0
	for n < len(dst) {
		switch {
		case u.sr < u.sw:
			k := copy(dst[n:], u.stage[u.sr:u.sw])
			u.sr += k
			n += k
		case u.raw > 0:
			k := copy(dst[n:], u.p[:u.raw])
			u.p, u.raw = u.p[k:], u.raw-k
			n += k
		case u.left > 0:
			k := min(u.left, blockLen)
			out, staged := dst[n:], false
			if len(out) < k*u.elem {
				out, staged = u.stage[:], true
			}
			if err := u.block(out[:k*u.elem], k); err != nil {
				return n, err
			}
			u.left -= k
			if staged {
				u.sr, u.sw = 0, k*u.elem
			} else {
				n += k * u.elem
			}
		case len(u.p) == 0:
			return n, io.EOF
		default:
			if err := u.segment(); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// segment reads the header of the next segment.
func (u *unpacker) segment() error {
	switch u.p[0] {
	case segRaw:
		n, w := binary.Uvarint(u.p[1:])
		if w <= 0 {
			return io.ErrUnexpectedEOF
		}
		if n > uint64(len(u.p)-1-w) {
			return io.ErrUnexpectedEOF
		}
		u.p, u.raw = u.p[1+w:], int(n)
	case segColumn:
		if len(u.p) < 10 {
			return io.ErrUnexpectedEOF
		}
		elem, count := int(u.p[1]), binary.LittleEndian.Uint64(u.p[2:])
		if !packable(elem) {
			return payloadErr("column of %d-byte elements", elem)
		}
		if count > maxBody {
			return payloadErr("column of %d elements", count)
		}
		u.sr, u.sw = 0, copy(u.stage[:], u.p[2:10])
		u.p, u.elem, u.left = u.p[10:], elem, int(count)
	default:
		return payloadErr("segment kind %d", u.p[0])
	}
	return nil
}

// block unpacks the next block, of k elements, into out.
func (u *unpacker) block(out []byte, k int) error {
	elem := u.elem
	if len(u.p) < 2+elem {
		return io.ErrUnexpectedEOF
	}
	width := int(u.p[0])
	if width > 8*elem {
		return payloadErr("a block %d bits wide of %d-byte elements", width, elem)
	}
	base := element(u.p[1:], 0, elem)
	exc := int(u.p[1+elem])
	if exc >= k {
		return payloadErr("%d exceptions in a block of %d", exc, k)
	}
	nb := (k*width + 7) / 8
	p := u.p[2+elem:]
	if len(p) < nb+exc*(1+elem) {
		return io.ErrUnexpectedEOF
	}
	offs := u.offs[:k]
	unpackBits(offs, p[:nb], uint(width))
	if pad := k * width % 8; pad != 0 && p[nb-1]>>pad != 0 {
		return payloadErr("padding bits set")
	}
	limit := uint64(maxElement(elem) - base) // wraps to the true difference
	var over uint64
	switch ub := uint64(base); elem {
	case 1:
		for i, off := range offs {
			over |= off
			out[i] = byte(ub + off)
		}
	case 4:
		for i, off := range offs {
			over |= off
			binary.LittleEndian.PutUint32(out[4*i:], uint32(ub+off))
		}
	default:
		for i, off := range offs {
			over |= off
			binary.LittleEndian.PutUint64(out[8*i:], ub+off)
		}
	}
	if over > limit { // an offset may be past it: find the first
		for i, off := range offs {
			if off > limit {
				return payloadErr("element %d is %d past base %d, more than a %d-byte element holds", i, off, base, elem)
			}
		}
	}
	p = p[nb:]
	prev := -1
	for range exc {
		i := int(p[0])
		if i <= prev || i >= k {
			return payloadErr("exception at %d after %d in a block of %d", i, prev, k)
		}
		if offs[i] != 0 {
			return payloadErr("exception at %d over offset %d", i, offs[i])
		}
		copy(out[i*elem:], p[1:1+elem])
		p, prev = p[1+elem:], i
	}
	u.p = p
	return nil
}

// unpackBits fills offs with the width-bit values packBits wrote into b.
func unpackBits(offs []uint64, b []byte, width uint) {
	if width == 0 {
		clear(offs)
		return
	}
	mask := uint64(1)<<width - 1 // all ones when width is 64
	var acc uint64
	var have uint // unread bits of acc
	for i := range offs {
		if have >= width {
			offs[i] = acc & mask
			acc >>= width
			have -= width
			continue
		}
		var next uint64
		if len(b) >= 8 {
			next, b = binary.LittleEndian.Uint64(b), b[8:]
		} else {
			for j, c := range b {
				next |= uint64(c) << (8 * j)
			}
			b = nil
		}
		offs[i] = (acc | next<<have) & mask
		acc = next >> (width - have) // 0 when width - have is 64
		have = 64 - (width - have)
	}
}
