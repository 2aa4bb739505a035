package flash

import "math/bits"

// victimIndex is the incrementally maintained GC victim index: for every
// plane it tracks the set of *full* blocks, bucketed by their valid-page
// count, as bitmaps over the plane's blocks. Greedy victim selection
// (fewest valid pages, lowest block id on ties) then resolves with a few
// word scans instead of an O(blocks-per-plane) pass over per-block
// counters.
//
// The index is updated on the three state transitions that can change
// victim candidacy:
//
//   - Program filling a block's last page inserts it (blockFilled);
//   - Invalidate on a full block moves it one bucket down (blockValidDec);
//   - Erase of a full block removes it (blockErased).
//
// Memory: (PagesPerBlock+1) bitmaps of BlocksPerPlane bits per plane —
// ~33 KiB per plane for the Table 1 geometry (4096 blocks x 64 pages).
type victimIndex struct {
	ppb            int // pages per block == number of buckets - 1
	blocksPerPlane int
	words          int // uint64 words per plane bitmap

	// buckets holds, for each plane, PagesPerBlock+1 bitmaps laid out
	// contiguously: bucket v marks the full blocks with exactly v valid
	// pages. backing is one allocation: plane-major, bucket-minor.
	buckets []uint64
	// minBucket is a per-plane lower bound on the smallest non-empty
	// bucket below PagesPerBlock; it is advanced lazily during lookups.
	minBucket []int
}

// init sizes the index for a geometry. All blocks start erased, so every
// bitmap starts empty.
func (vi *victimIndex) init(g *Geometry) {
	vi.ppb = g.PagesPerBlock
	vi.blocksPerPlane = g.BlocksPerPlane
	vi.words = (g.BlocksPerPlane + 63) / 64
	vi.buckets = make([]uint64, g.Planes*(vi.ppb+1)*vi.words)
	vi.minBucket = make([]int, g.Planes)
	for pl := range vi.minBucket {
		vi.minBucket[pl] = vi.ppb
	}
}

// bucket returns the bitmap words of one plane's bucket v.
func (vi *victimIndex) bucket(pl PlaneID, v int) []uint64 {
	off := (int(pl)*(vi.ppb+1) + v) * vi.words
	return vi.buckets[off : off+vi.words]
}

// bitOf returns the word index and mask of a block within its plane bitmap.
func (vi *victimIndex) bitOf(pl PlaneID, b BlockID) (int, uint64) {
	in := int(b) - int(pl)*vi.blocksPerPlane
	return in >> 6, 1 << (uint(in) & 63)
}

// blockFilled inserts a block that just became full with the given valid
// count.
func (vi *victimIndex) blockFilled(pl PlaneID, b BlockID, valid int) {
	w, m := vi.bitOf(pl, b)
	vi.bucket(pl, valid)[w] |= m
	if valid < vi.minBucket[pl] {
		vi.minBucket[pl] = valid
	}
}

// blockValidDec moves a full block from bucket valid+1 to bucket valid
// after one of its pages was invalidated.
func (vi *victimIndex) blockValidDec(pl PlaneID, b BlockID, valid int) {
	w, m := vi.bitOf(pl, b)
	vi.bucket(pl, valid+1)[w] &^= m
	vi.bucket(pl, valid)[w] |= m
	if valid < vi.minBucket[pl] {
		vi.minBucket[pl] = valid
	}
}

// blockErased removes a full block (necessarily with zero valid pages)
// from the index.
func (vi *victimIndex) blockErased(pl PlaneID, b BlockID) {
	w, m := vi.bitOf(pl, b)
	vi.bucket(pl, 0)[w] &^= m
}

// lowestBit returns the lowest set bit of the bitmap as an in-plane block
// index, clearing nothing, with up to two excluded positions (pass -1 to
// disable an exclusion); -1 when no eligible bit is set.
func lowestBit(words []uint64, ex1, ex2 int) int {
	for wi, w := range words {
		if w == 0 {
			continue
		}
		base := wi << 6
		if ex1 >= base && ex1 < base+64 {
			w &^= 1 << uint(ex1-base)
		}
		if ex2 >= base && ex2 < base+64 {
			w &^= 1 << uint(ex2-base)
		}
		if w != 0 {
			return base + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// inPlane converts a block id to its in-plane bit position, or -1 when the
// block does not belong to the plane.
func (vi *victimIndex) inPlane(pl PlaneID, b BlockID) int {
	if b < 0 {
		return -1
	}
	in := int(b) - int(pl)*vi.blocksPerPlane
	if in < 0 || in >= vi.blocksPerPlane {
		return -1
	}
	return in
}

// greedy returns the full block with the fewest valid pages (< ppb) in the
// plane, lowest block id on ties, excluding up to two blocks; -1 if none.
func (vi *victimIndex) greedy(pl PlaneID, skip1, skip2 BlockID) BlockID {
	ex1 := vi.inPlane(pl, skip1)
	ex2 := vi.inPlane(pl, skip2)
	planeBase := BlockID(int(pl) * vi.blocksPerPlane)
	advance := true
	for v := vi.minBucket[pl]; v < vi.ppb; v++ {
		words := vi.bucket(pl, v)
		empty := true
		for _, w := range words {
			if w != 0 {
				empty = false
				break
			}
		}
		if empty {
			// Advance the lower bound while the scan only met empty
			// buckets; a bucket holding only excluded blocks stops it.
			if advance {
				vi.minBucket[pl] = v + 1
			}
			continue
		}
		advance = false
		if in := lowestBit(words, ex1, ex2); in >= 0 {
			return planeBase + BlockID(in)
		}
	}
	return -1
}
