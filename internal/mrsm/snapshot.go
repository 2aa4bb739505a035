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
	deltas(enc, s.subLoc)
	deltas(enc, s.pageOwner)
	enc.Column(len(s.pageLive), 1, func(dst []byte, first int) { copy(dst, s.pageLive[first:]) })
	enc.I32s(s.nodeDirty)
	enc.I64s(s.bufList)
	if err := s.cmt.SnapshotState(enc); err != nil {
		return err
	}
	return s.ms.SnapshotState(enc)
}

// deltas writes a 32-bit table as the wrapping differences between
// neighbours, the first from zero. The location and census tables run in
// long ascending stretches, which DEFLATE finds only once they are
// differenced; no other column is written this way (DESIGN §13).
func deltas(enc *snapshot.Encoder, col []int32) {
	enc.Column(len(col), 4, func(dst []byte, first int) {
		var prev int32
		if first > 0 {
			prev = col[first-1]
		}
		for i, v := range col[first : first+len(dst)/4] {
			snapshot.PutI32(dst, i, v-prev)
			prev = v
		}
	})
}

// undeltas reads a column written by deltas into a table of the receiver's
// size. It refuses any reconstructed value but unmapped or an index into the
// other table (limit is its length) as snapshot.ErrCorrupt.
func undeltas(dec *snapshot.Decoder, dst []int32, limit int, what string) {
	var v int32
	dec.Column(4, len(dst), func(src []byte, first int) error {
		for i := range len(src) / 4 {
			v += snapshot.I32(src, i)
			if v < unmapped || int(v) >= limit {
				return fmt.Errorf("%w: mrsm %s entry %d is %d, outside [-1,%d)", snapshot.ErrCorrupt, what, first+i, v, limit)
			}
			dst[first+i] = v
		}
		return nil
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
	undeltas(dec, s.subLoc, len(s.pageOwner), "location")
	undeltas(dec, s.pageOwner, len(s.subLoc), "census")
	dec.Column(1, len(s.pageLive), func(src []byte, first int) error {
		for i, n := range src {
			if int(n) > s.subPerPg {
				return fmt.Errorf("%w: mrsm page %d has %d live slots, page fits %d", snapshot.ErrCorrupt, first+i, n, s.subPerPg)
			}
		}
		copy(s.pageLive[first:], src)
		return nil
	})
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
