package mrsm

import (
	"fmt"

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
	enc.I64s(s.subLoc)
	enc.I64s(s.pageOwner)
	enc.I32s(s.pageLive)
	enc.I32s(s.nodeDirty)
	enc.I64s(s.bufList)
	if err := s.cmt.SnapshotState(enc); err != nil {
		return err
	}
	return s.ms.SnapshotState(enc)
}

// RestoreState implements snapshot.Snapshotter. All array sizes are derived
// from the configuration the receiver was built with, so mismatches mean
// the snapshot belongs to a different device and are rejected.
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
	subLoc.CopyTo(s.subLoc)
	pageOwner.CopyTo(s.pageOwner)
	pageLive.CopyTo(s.pageLive)
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
