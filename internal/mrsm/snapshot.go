package mrsm

import (
	"fmt"

	"across/internal/ftl"
	"across/internal/snapshot"
)

// SnapshotState implements snapshot.Snapshotter: Base plus the sub-page
// mapping, the packed-page census, the cached mapping table with its
// per-node dirty counts, the flash map store and the live pack buffer.
// Request-scoped scratch (ppnScratch, subsPool, ownersBuf) is excluded.
func (s *Scheme) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("scheme:MRSM")
	if err := s.SnapshotBase(enc); err != nil {
		return err
	}
	widen(enc.I64Slab(len(s.subLoc)), s.subLoc)
	widen(enc.I64Slab(len(s.pageOwner)), s.pageOwner)
	live := enc.I32Slab(len(s.pageLive))
	for i, n := range s.pageLive {
		live.Set(i, int32(n))
	}
	enc.I32s(s.nodeDirty)
	enc.I64s(s.bufList)
	if err := s.cmt.SnapshotState(enc); err != nil {
		return err
	}
	return s.ms.SnapshotState(enc)
}

// widen writes a 32-bit column into the 64-bit slab the format gives it.
func widen(dst snapshot.I64Slab, col []int32) {
	for i, v := range col {
		dst.Set(i, int64(v))
	}
}

// narrow is widen's inverse. It refuses any value but unmapped or an index
// into the other table (limit is its length) as snapshot.ErrCorrupt.
func narrow(dst []int32, src snapshot.I64View, limit int, what string) error {
	for i := range dst {
		v := src.At(i)
		if v < unmapped || v >= int64(limit) {
			return fmt.Errorf("%w: mrsm %s entry %d is %d, outside [-1,%d)", snapshot.ErrCorrupt, what, i, v, limit)
		}
		dst[i] = int32(v)
	}
	return nil
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
	subLoc := dec.I64View()
	pageOwner := dec.I64View()
	pageLive := dec.I32View()
	nodeDirty := dec.I32View()
	bufList := dec.I64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if subLoc.Len() != len(s.subLoc) || pageOwner.Len() != len(s.pageOwner) ||
		pageLive.Len() != len(s.pageLive) || nodeDirty.Len() != len(s.nodeDirty) {
		return fmt.Errorf("mrsm: snapshot arrays sized %d/%d/%d/%d, receiver has %d/%d/%d/%d",
			subLoc.Len(), pageOwner.Len(), pageLive.Len(), nodeDirty.Len(),
			len(s.subLoc), len(s.pageOwner), len(s.pageLive), len(s.nodeDirty))
	}
	if len(bufList) > s.subPerPg {
		return fmt.Errorf("mrsm: snapshot pack buffer holds %d sub-pages, page fits %d", len(bufList), s.subPerPg)
	}
	for _, sub := range bufList {
		if sub < 0 || sub >= int64(len(s.subLoc)) {
			return fmt.Errorf("%w: mrsm pack buffer holds sub-page %d, outside [0,%d)", snapshot.ErrCorrupt, sub, len(s.subLoc))
		}
	}
	if err := narrow(s.subLoc, subLoc, len(s.pageOwner), "location"); err != nil {
		return err
	}
	if err := narrow(s.pageOwner, pageOwner, len(s.subLoc), "census"); err != nil {
		return err
	}
	for i := range s.pageLive {
		n := pageLive.At(i)
		if n < 0 || int(n) > s.subPerPg {
			return fmt.Errorf("%w: mrsm page %d has %d live slots, page fits %d", snapshot.ErrCorrupt, i, n, s.subPerPg)
		}
		s.pageLive[i] = uint8(n)
	}
	nodeDirty.CopyTo(s.nodeDirty)
	s.bufList = append(s.bufList[:0], bufList...)
	if err := s.cmt.RestoreState(dec); err != nil {
		return err
	}
	if err := s.ms.RestoreState(dec); err != nil {
		return err
	}
	return dec.Err()
}

// CopyState makes the scheme a copy of src, an MRSM *Scheme built for the
// same configuration (see ftl.Baseline.CopyState), and returns the bytes
// copied. Request-scoped scratch is not state.
func (s *Scheme) CopyState(src ftl.Scheme) int64 {
	from := src.(*Scheme)
	s.bufList = append(s.bufList[:0], from.bufList...)
	n := 4*copy(s.subLoc, from.subLoc) + 4*copy(s.pageOwner, from.pageOwner) + copy(s.pageLive, from.pageLive) +
		4*copy(s.nodeDirty, from.nodeDirty) + 8*len(s.bufList)
	return int64(n) + s.CopyBase(&from.Base) + s.cmt.CopyState(from.cmt) + s.ms.CopyState(from.ms)
}
