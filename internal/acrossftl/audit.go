package acrossftl

import (
	"fmt"

	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/mapping"
)

// Audit verifies the referential integrity of the two-level mapping table
// against the flash array. It is O(logical pages) and intended for tests and
// debugging, not the replay hot path. The invariants checked are the ones
// §3.2 relies on:
//
//   - PMT.AIdx and AMT entries reference each other bijectively;
//   - every area is a legal across-page extent: it starts inside its first
//     page, crosses exactly the one page boundary, and fits one flash page;
//   - live areas are pairwise disjoint;
//   - every area's physical page is valid and OOB-tagged as that area;
//   - every mapped PMT page is valid flash tagged with the owning LPN.
func (s *Scheme) Audit() error { return s.auditTables(ftl.ClaimOf(nil)) }

// auditTables is Audit as one walk in PMT key order, handing each page it has
// verified — a mapped data page, then the page of the area keyed there — to
// claim.
func (s *Scheme) auditTables(claim ftl.Claim) error {
	arr := s.Dev.Array
	spp := int32(s.SPP)
	liveSeen := 0
	var order areaOrder
	for lpn := int64(0); lpn < s.PMT.Len(); lpn++ {
		e := s.PMT.Get(lpn)
		if e.PPN != flash.NilPPN {
			if uint64(e.PPN) >= uint64(arr.Geo.TotalPages()) {
				return fmt.Errorf("audit: lpn %d: %w", lpn, arr.Geo.CheckPPN(e.PPN))
			}
			if !arr.Holds(e.PPN, ftl.TagData, lpn) {
				if st := arr.State(e.PPN); st != flash.PageValid {
					return fmt.Errorf("audit: lpn %d maps to %v page %d", lpn, st, e.PPN)
				}
				return fmt.Errorf("audit: lpn %d page %d has foreign tag %+v", lpn, e.PPN, arr.TagOf(e.PPN))
			}
			if err := claim(e.PPN); err != nil {
				return fmt.Errorf("audit: lpn %d: %w", lpn, err)
			}
		}
		if e.AIdx == mapping.NoAIdx {
			continue
		}
		liveSeen++
		if !s.AMT.InUse(e.AIdx) {
			return fmt.Errorf("audit: lpn %d references dead AMT index %d", lpn, e.AIdx)
		}
		a := s.AMT.Get(e.AIdx)
		if a.LPN != lpn {
			return fmt.Errorf("audit: AMT %d back-references lpn %d, PMT says %d", e.AIdx, a.LPN, lpn)
		}
		if a.Off < 0 || a.Off >= spp {
			return fmt.Errorf("audit: AMT %d offset %d outside first page", e.AIdx, a.Off)
		}
		if a.Size <= 0 || a.Size > spp {
			return fmt.Errorf("audit: AMT %d size %d not in (0,%d]", e.AIdx, a.Size, spp)
		}
		if a.End() <= spp {
			return fmt.Errorf("audit: AMT %d does not cross the page boundary (end %d)", e.AIdx, a.End())
		}
		if a.End() > 2*spp {
			return fmt.Errorf("audit: AMT %d extends past the second page (end %d)", e.AIdx, a.End())
		}
		if err := order.next(s, area{idx: e.AIdx, e: a}); err != nil {
			return err
		}
		if err := arr.Geo.CheckPPN(a.APPN); err != nil {
			return fmt.Errorf("audit: AMT %d: %w", e.AIdx, err)
		}
		if !arr.Holds(a.APPN, ftl.TagAcross, int64(e.AIdx)) {
			if st := arr.State(a.APPN); st != flash.PageValid {
				return fmt.Errorf("audit: AMT %d area page %d is %v", e.AIdx, a.APPN, st)
			}
			return fmt.Errorf("audit: AMT %d area page %d has foreign tag %+v", e.AIdx, a.APPN, arr.TagOf(a.APPN))
		}
		// The OOB copy of the area geometry (the recovery record) must
		// match the in-DRAM entry.
		tLPN, tOff, tSize := unpackAux(arr.TagOf(a.APPN).Aux)
		if tLPN != a.LPN || tOff != a.Off || tSize != a.Size {
			return fmt.Errorf("audit: AMT %d OOB geometry (%d,%d,%d) != entry (%d,%d,%d)",
				e.AIdx, tLPN, tOff, tSize, a.LPN, a.Off, a.Size)
		}
		if err := claim(a.APPN); err != nil {
			return fmt.Errorf("audit: AMT %d: %w", e.AIdx, err)
		}
	}
	if liveSeen != s.AMT.Live() {
		return fmt.Errorf("audit: PMT references %d areas, AMT says %d live", liveSeen, s.AMT.Live())
	}
	return nil
}

// areaOrder proves live areas pairwise disjoint from one pass in PMT key
// order. The write path keeps them so by reconciling every conflicting area
// (AMerge or ARollback) before installing a new one; were two areas to
// overlap, reads of the shared sectors would be ambiguous. Once the PMT is
// known to reach every live area exactly once and an area keyed at L to lie
// within pages L and L+1, only the areas keyed at L and L+1 can overlap, so
// comparing each area with the one before it proves every pair disjoint.
type areaOrder struct {
	prev area
	seen bool
}

// next compares a, the next live area in key order, with the previous one.
func (o *areaOrder) next(s *Scheme, a area) error {
	if o.seen && s.spanOf(a.e).intersects(s.spanOf(o.prev.e)) {
		return fmt.Errorf("audit: areas %d %+v and %d %+v overlap",
			o.prev.idx, s.spanOf(o.prev.e), a.idx, s.spanOf(a.e))
	}
	o.prev, o.seen = a, true
	return nil
}

// auditAreaDisjointness is the disjointness half of Audit on its own: one
// areaOrder pass over the areas the PMT reaches.
func (s *Scheme) auditAreaDisjointness() error {
	var order areaOrder
	for lpn := int64(0); lpn < s.PMT.Len(); lpn++ {
		if a, ok := s.areaAt(lpn); ok {
			if err := order.next(s, a); err != nil {
				return err
			}
		}
	}
	return nil
}

// AuditMapping implements check.Auditable: Audit's one walk over the PMT and
// the areas it reaches, then the AMT spill store. Each page it verifies — a
// mapped data page, an area page, a spilled translation page — goes to the
// claim when one is given.
func (s *Scheme) AuditMapping(claim ...ftl.Claim) error {
	own := ftl.ClaimOf(claim)
	if err := s.auditTables(own); err != nil {
		return err
	}
	return s.amt.Audit(own)
}

// ResolveRun implements check.SectorResolver. Area coverage wins over the
// page mapping: an across write does not invalidate the underlying PMT pages
// (they still hold sectors outside the area), so a covered sector's newest
// copy is the area page even when a PMT page exists. An area keyed at LPN L
// covers sectors inside pages L and L+1, so a sector in page M consults the
// areas keyed at M and then M-1.
//
// A run outside any area ends at the page end or where an area begins in
// the page. A run in the area keyed at M ends where the area does, and in
// page M+1 no later than where the area keyed there begins, since that one
// is consulted first; in the area keyed at M-1 it ends with the area, the
// page, or where the area keyed at M begins.
func (s *Scheme) ResolveRun(sec int64) (ftl.SectorSource, int64, error) {
	n := s.LogicalSectors()
	if sec < 0 || sec >= n {
		return ftl.SectorSource{}, 0, fmt.Errorf("acrossftl: sector %d outside device", sec)
	}
	spp := int64(s.SPP)
	lpn := sec / spp
	end := min((lpn+1)*spp, n)
	for _, key := range [2]int64{lpn, lpn - 1} {
		a, ok := s.areaAt(key)
		if !ok {
			continue
		}
		sp := s.spanOf(a.e)
		if sec < sp.Start {
			end = min(end, sp.Start)
			continue
		}
		if sec >= sp.End {
			continue
		}
		runEnd := min(sp.End, (key+2)*spp, n)
		if key == lpn {
			if next, ok := s.areaAt(lpn + 1); ok {
				runEnd = min(runEnd, max(s.spanOf(next.e).Start, end))
			}
		} else {
			runEnd = min(runEnd, end)
		}
		return ftl.SectorSource{
			Kind: ftl.SrcFlash,
			PPN:  a.e.APPN,
			Tag: flash.Tag{
				Kind: ftl.TagAcross,
				Key:  int64(a.idx),
				Aux:  packAux(a.e.LPN, a.e.Off, a.e.Size),
			},
		}, runEnd, nil
	}
	ppn := s.PMT.PPNOf(lpn)
	if ppn == flash.NilPPN {
		return ftl.SectorSource{Kind: ftl.SrcUnwritten}, end, nil
	}
	return ftl.SectorSource{
		Kind: ftl.SrcFlash,
		PPN:  ppn,
		Tag:  flash.Tag{Kind: ftl.TagData, Key: lpn},
	}, end, nil
}

// VisitWritten implements check.SectorResolver, the bulk form of
// ResolveRun: the mapped pages, then every area ResolveRun can reach —
// through PMT.AIdxOf, never by scanning AMT slots, so a leaked slot marks
// nothing — cut to the two pages it is consulted for.
func (s *Scheme) VisitWritten(fn func(start, end int64)) {
	s.Base.VisitWritten(fn)
	spp := int64(s.SPP)
	for lpn := int64(0); lpn < s.PMT.Len(); lpn++ {
		if a, ok := s.areaAt(lpn); ok {
			sp := s.spanOf(a.e)
			fn(max(sp.Start, lpn*spp), min(sp.End, (lpn+2)*spp))
		}
	}
}
