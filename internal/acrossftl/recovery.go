package acrossftl

import (
	"fmt"

	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/mapping"
)

// Across-area pages carry their full mapping entry in the OOB area so the
// two-level table can be rebuilt after power loss without any journalling:
// Key holds the AMT index and Aux packs (first LPN, Off, Size). Off and
// Size fit a byte each for any page size up to 128 KB.
func packAux(lpn int64, off, size int32) int64 {
	return lpn<<16 | int64(off)<<8 | int64(size)
}

func unpackAux(aux int64) (lpn int64, off, size int32) {
	return aux >> 16, int32(aux >> 8 & 0xFF), int32(aux & 0xFF)
}

// Recover mounts Across-FTL over a crashed device: partially written blocks
// are sealed, then one OOB scan rebuilds the PMT (TagData pages), the AMT
// (TagAcross pages, at their original indices so GC keys stay valid), and
// drops stale spilled translation pages (TagMap) whose contents the rebuilt
// in-DRAM table supersedes.
func Recover(dev *ftl.Device) (*Scheme, error) {
	base, err := ftl.RecoverBase(dev)
	if err != nil {
		return nil, err
	}
	s := newScheme(base, Options{})

	geo := dev.Array.Geo
	var stale []flash.PPN
	for b := flash.BlockID(0); int64(b) < geo.TotalBlocks(); b++ {
		for _, p := range dev.Array.ValidPages(b) {
			tag := dev.Array.TagOf(p)
			switch tag.Kind {
			case ftl.TagData:
				if old := s.PMT.SetPPN(tag.Key, p); old != flash.NilPPN {
					return nil, fmt.Errorf("acrossftl: recovery found two valid pages for lpn %d", tag.Key)
				}
			case ftl.TagAcross:
				lpn, off, size := unpackAux(tag.Aux)
				idx := int32(tag.Key)
				if s.AMT.InUse(idx) {
					return nil, fmt.Errorf("acrossftl: recovery found two areas with index %d", idx)
				}
				s.AMT.AllocAt(idx, mapping.AMTEntry{LPN: lpn, Off: off, Size: size, APPN: p})
				if s.PMT.AIdxOf(lpn) != mapping.NoAIdx {
					return nil, fmt.Errorf("acrossftl: recovery found two areas keyed at lpn %d", lpn)
				}
				s.PMT.SetAIdx(lpn, idx)
			case ftl.TagMap:
				// The AMT is rebuilt in DRAM; the spilled copy is stale.
				stale = append(stale, p)
			default:
				return nil, fmt.Errorf("acrossftl: recovery met tag kind %d", tag.Kind)
			}
		}
	}
	for _, p := range stale {
		if err := dev.Invalidate(p); err != nil {
			return nil, fmt.Errorf("acrossftl: dropping stale translation page: %w", err)
		}
	}
	if err := s.Audit(); err != nil {
		return nil, fmt.Errorf("acrossftl: post-recovery audit: %w", err)
	}
	return s, nil
}
