package mrsm

import (
	"fmt"

	"across/internal/ftl"
	"across/internal/snapshot"
)

// SnapshotState implements snapshot.Snapshotter: Base plus the sub-page
// mapping, the per-node dirty counts, the live pack buffer and the node
// table (its DRAM cache and flash spill). The packed-page census is the
// mapping inverted, and RestoreState rebuilds it; request-scoped scratch
// (ppnScratch, subsPool, ownersBuf) is excluded.
func (s *Scheme) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("scheme:MRSM")
	if err := s.SnapshotBase(enc); err != nil {
		return err
	}
	steps(enc, s.subLoc)
	enc.I32s(s.nodeDirty)
	enc.I64s(s.bufList)
	return s.nodes.SnapshotState(enc)
}

// steps writes the location table as each entry's wrapping difference from
// the one before it (the first from zero), zigzag-folded so that a small step
// either way is a small number. A page's sub-pages sit in neighbouring slots,
// so most steps are 0 or ±1 and pack into a few bits, where a location GC
// scattered needs 22; the far jumps become the block's exceptions. On
// Scaled(16) the column packs to 2.26 MB this way, 4.76 MB plain and 4.97 MB
// differenced but not folded (the one negative jump of a block becomes its
// minimum).
func steps(enc *snapshot.Encoder, col []int32) {
	enc.Column(len(col), 4, func(dst []byte, first int) {
		var prev int32
		if first > 0 {
			prev = col[first-1]
		}
		for i, v := range col[first : first+len(dst)/4] {
			d := v - prev
			snapshot.PutI32(dst, i, d<<1^d>>31)
			prev = v
		}
	})
}

// RestoreState implements snapshot.Snapshotter. All array sizes are derived
// from the configuration the receiver was built with, so mismatches mean
// the snapshot belongs to a different device and are rejected; so is any
// entry that does not fit the receiver's slot space.
func (s *Scheme) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("scheme:MRSM")
	if err := s.RestoreBase(dec); err != nil {
		return err
	}
	if err := s.restoreLocations(dec); err != nil {
		return err
	}
	dec.Column(4, len(s.nodeDirty), func(src []byte, first int) error {
		for i := range len(src) / 4 {
			s.nodeDirty[first+i] = snapshot.I32(src, i)
		}
		return nil
	})
	bufList := dec.I64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(bufList) > s.subPerPg {
		return fmt.Errorf("mrsm: snapshot pack buffer holds %d sub-pages, page fits %d", len(bufList), s.subPerPg)
	}
	for _, sub := range bufList {
		if sub < 0 || sub >= int64(len(s.subLoc)) {
			return fmt.Errorf("%w: mrsm pack buffer holds sub-page %d, outside [0,%d)", snapshot.ErrCorrupt, sub, len(s.subLoc))
		}
	}
	s.bufList = append(s.bufList[:0], bufList...)
	if err := s.nodes.RestoreState(dec); err != nil {
		return err
	}
	return dec.Err()
}

// restoreLocations reads the sub-page locations, as steps wrote them, into a
// fresh receiver and rebuilds the packed-page census they invert: each mapped sub-page owns the
// slot it names, and a page's live count is its owned slots. A location
// outside the slot space, or a slot two sub-pages name, is refused as
// snapshot.ErrCorrupt; the audit checks the rest of the bijection.
//
// The column's pass only stores owners, whose slots it reaches in no useful
// order; the live counts come from a second pass, over the census in order.
// A slot named twice shows there, as fewer occupied slots than mapped
// sub-pages, and only then is the second name looked for.
func (s *Scheme) restoreLocations(dec *snapshot.Decoder) error {
	slots := uint32(len(s.pageOwner))
	mapped, loc := 0, int32(0)
	dec.Column(4, len(s.subLoc), func(src []byte, first int) error {
		for i := range len(src) / 4 {
			step := uint32(snapshot.I32(src, i))
			loc += int32(step>>1) ^ -int32(step&1)
			sub := first + i
			if loc == unmapped {
				continue
			}
			if uint32(loc) >= slots {
				return fmt.Errorf("%w: mrsm location entry %d is %d, outside [-1,%d)", snapshot.ErrCorrupt, sub, loc, slots)
			}
			s.subLoc[sub], s.pageOwner[loc] = loc, int32(sub)
			mapped++
		}
		return nil
	})
	if err := dec.Err(); err != nil {
		return err
	}
	occupied, spp := 0, s.subPerPg
	for ppn := range s.pageLive {
		live := uint8(0)
		for _, sub := range s.pageOwner[ppn*spp : (ppn+1)*spp] {
			if sub != unmapped {
				live++
			}
		}
		s.pageLive[ppn] = live
		occupied += int(live)
	}
	if occupied == mapped {
		return nil
	}
	for sub, loc := range s.subLoc {
		if owner := s.pageOwner[max(loc, 0)]; loc != unmapped && owner != int32(sub) {
			return fmt.Errorf("%w: mrsm slot %d is the location of sub-pages %d and %d", snapshot.ErrCorrupt, loc, sub, owner)
		}
	}
	return nil
}

// CopyState makes the scheme a copy of src, an MRSM *Scheme built for the
// same configuration (see ftl.Baseline.CopyState), and returns the bytes
// copied. Request-scoped scratch is not state.
func (s *Scheme) CopyState(src ftl.Scheme) int64 {
	from := src.(*Scheme)
	s.bufList = append(s.bufList[:0], from.bufList...)
	n := 4*copy(s.subLoc, from.subLoc) + 4*copy(s.pageOwner, from.pageOwner) + copy(s.pageLive, from.pageLive) +
		4*copy(s.nodeDirty, from.nodeDirty) + 8*len(s.bufList)
	return int64(n) + s.CopyBase(&from.Base) + s.nodes.CopyState(from.nodes)
}
