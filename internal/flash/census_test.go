package flash

import (
	"math/rand"
	"testing"

	"across/internal/ssdconf"
)

// censusRef is the scalar reference for BlockCensus: one page at a time,
// below the write pointer a page must be valid, or invalid with no kind bits,
// and from the pointer up it must be the zero byte.
func censusRef(meta []uint8, wp int) (valid, bad int) {
	bad = -1
	for i, m := range meta {
		ok := m == 0
		if i < wp {
			isValid := PageState(m&stateMask) == PageValid
			if isValid {
				valid++
			}
			ok = isValid || m == uint8(PageInvalid)
		}
		if !ok && bad < 0 {
			bad = i
		}
	}
	return valid, bad
}

// checkCensus lays meta (zero-padded or cut to the block) and the write
// pointer onto the second and the last block of an array with ppb pages a
// block, and requires BlockCensus to agree with censusRef on both: the last
// block has no bytes after it, the second has erased neighbours.
func checkCensus(t *testing.T, ppb, wp int, meta []byte) {
	t.Helper()
	c := ssdconf.Tiny()
	c.PagesPerBlock = ppb
	a, err := NewArray(&c)
	if err != nil {
		t.Fatalf("NewArray with %d pages a block: %v", ppb, err)
	}
	for _, b := range []BlockID{1, BlockID(a.Geo.TotalBlocks() - 1)} {
		first := a.Geo.FirstPage(b)
		m := a.meta[first : first+PPN(ppb)]
		copy(m, meta)
		a.writePtr[b] = int32(wp)
		wantValid, wantBad := censusRef(m, wp)
		if valid, bad := a.BlockCensus(b); valid != wantValid || bad != wantBad {
			t.Fatalf("block %d, %d pages, write pointer %d, meta % x: census (valid %d, bad %d), reference (valid %d, bad %d)",
				b, ppb, wp, m, valid, bad, wantValid, wantBad)
		}
	}
}

// FuzzBlockCensus: BlockCensus, which checks eight metadata bytes at a time,
// agrees with the page-at-a-time reference on the valid count and the first
// bad page, for any metadata bytes, write pointer and block size — including
// sizes that are not a multiple of eight and stray kind bits on free and
// invalid pages.
func FuzzBlockCensus(f *testing.F) {
	valid := func(kind uint8) byte { return byte(PageValid) | kind<<kindShift }
	inv := byte(PageInvalid)
	f.Add(uint8(8), uint8(8), []byte{valid(1), valid(2), inv, inv, valid(62), inv, valid(0), valid(5)})
	f.Add(uint8(64), uint8(40), []byte{valid(1), inv, valid(3)})
	f.Add(uint8(13), uint8(5), []byte{valid(1), valid(1), inv, inv, valid(4), 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(13), uint8(13), []byte{valid(1), 0, inv})                           // free below the pointer
	f.Add(uint8(9), uint8(3), []byte{inv, inv, inv | 1<<kindShift})                 // stray kind bits on an invalid page
	f.Add(uint8(9), uint8(3), []byte{inv, inv, inv, 0, 0, 0, 0, 0, 1 << kindShift}) // stray kind bits on a free page
	f.Add(uint8(3), uint8(0), []byte{0, 0, 3})                                      // state 3 above the pointer
	f.Add(uint8(17), uint8(9), []byte{valid(1), valid(1), valid(1), valid(1), valid(1), valid(1), valid(1), valid(1), valid(1), valid(1)})
	f.Fuzz(func(t *testing.T, ppb, wp uint8, meta []byte) {
		n := int(ppb)%80 + 1
		checkCensus(t, n, int(wp)%(n+1), meta)
	})
}

// TestBlockCensusMatchesReference runs the fuzz target's property over
// random blocks, most of them healthy (so the valid count is checked over
// whole blocks) and the rest with one or more stray bytes.
func TestBlockCensusMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		ppb := 1 + rng.Intn(80)
		wp := rng.Intn(ppb + 1)
		meta := make([]byte, ppb)
		for i := range meta[:wp] {
			if rng.Intn(2) == 0 {
				meta[i] = byte(PageValid) | byte(rng.Intn(MaxKind+1))<<kindShift
			} else {
				meta[i] = byte(PageInvalid)
			}
		}
		if trial%3 != 0 {
			for k := rng.Intn(3) + 1; k > 0; k-- {
				meta[rng.Intn(ppb)] = byte(rng.Intn(256))
			}
		}
		checkCensus(t, ppb, wp, meta)
	}
}
