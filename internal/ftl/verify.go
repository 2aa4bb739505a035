package ftl

import (
	"fmt"

	"across/internal/flash"
)

// This file defines the scheme-side vocabulary of the verification layer
// (internal/check): where a logical sector's current contents live, the Claim
// an audit hands each verified owned page to, and the shared audit helpers
// for the structures every scheme embeds (the PMT and the PagedTable). The
// interfaces themselves — Auditable and SectorResolver — are declared in
// internal/check; schemes satisfy them structurally without importing it.

// SourceKind says where a logical sector's current contents live.
type SourceKind uint8

const (
	// SrcUnwritten: the sector has never been materialised; a read returns
	// the formatted (zero) pattern and touches no flash.
	SrcUnwritten SourceKind = iota
	// SrcBuffered: the sector's newest copy sits in controller RAM (e.g.
	// MRSM's pack buffer) and has no flash location yet.
	SrcBuffered
	// SrcFlash: the sector's newest copy is the flash page PPN, whose OOB
	// tag must equal Tag.
	SrcFlash
)

// String implements fmt.Stringer for diagnostics.
func (k SourceKind) String() string {
	switch k {
	case SrcUnwritten:
		return "unwritten"
	case SrcBuffered:
		return "buffered"
	case SrcFlash:
		return "flash"
	}
	return fmt.Sprintf("SourceKind(%d)", uint8(k))
}

// SectorSource is a scheme's claim about one logical sector: the kind of
// location plus, for flash sources, the physical page and the OOB tag the
// scheme expects to find on it. The checker verifies the claim against the
// array — the page must be valid and carry exactly that tag — so a mapping
// entry pointing at a stale, foreign or erased page is a detected violation,
// not a silent wrong answer.
type SectorSource struct {
	Kind SourceKind
	PPN  flash.PPN
	Tag  flash.Tag
}

// A Claim receives a flash page that a scheme's mapping audit has just
// verified one of its entries owns, once per entry; the checker's ownership
// sweep is one. An error stops the audit and is returned from it.
type Claim func(flash.PPN) error

// ClaimOf folds AuditMapping's optional claim arguments into one Claim: none
// is a no-op, several run in order.
func ClaimOf(claims []Claim) Claim {
	switch len(claims) {
	case 0:
		return func(flash.PPN) error { return nil }
	case 1:
		return claims[0]
	}
	return func(p flash.PPN) error {
		for _, c := range claims {
			if err := c(p); err != nil {
				return err
			}
		}
		return nil
	}
}

// AuditPMT verifies the data-page half of the shared page mapping table —
// every mapped logical page must reference a valid flash page whose OOB tag
// names that page as its owner — and hands each verified page to claim.
func (b *Base) AuditPMT(claim Claim) error {
	arr := b.Dev.Array
	for lpn := int64(0); lpn < b.PMT.Len(); lpn++ {
		ppn := b.PMT.PPNOf(lpn)
		if ppn == flash.NilPPN {
			continue
		}
		if uint64(ppn) >= uint64(arr.Geo.TotalPages()) {
			return fmt.Errorf("pmt: lpn %d: %w", lpn, arr.Geo.CheckPPN(ppn))
		}
		if !arr.Holds(ppn, TagData, lpn) {
			if st := arr.State(ppn); st != flash.PageValid {
				return fmt.Errorf("pmt: lpn %d maps to %v page %d", lpn, st, ppn)
			}
			return fmt.Errorf("pmt: lpn %d page %d has foreign tag %+v", lpn, ppn, arr.TagOf(ppn))
		}
		if err := claim(ppn); err != nil {
			return fmt.Errorf("pmt: lpn %d: %w", lpn, err)
		}
	}
	return nil
}

// ResolveRun implements check.SectorResolver for Baseline and DFTL, which
// resolve at page level: the sector lives wherever its logical page is
// mapped (for DFTL, residence of the mapping entry affects timing, not
// placement), so its run is the rest of the page.
func (b *Base) ResolveRun(sec int64) (SectorSource, int64, error) {
	if sec < 0 || sec >= b.sectors {
		return SectorSource{}, 0, fmt.Errorf("ftl: sector %d outside device", sec)
	}
	spp := int64(b.SPP)
	lpn := sec / spp
	end := min((lpn+1)*spp, b.sectors)
	ppn := b.PMT.PPNOf(lpn)
	if ppn == flash.NilPPN {
		return SectorSource{Kind: SrcUnwritten}, end, nil
	}
	return SectorSource{
		Kind: SrcFlash,
		PPN:  ppn,
		Tag:  flash.Tag{Kind: TagData, Key: lpn},
	}, end, nil
}

// VisitWritten implements check.SectorResolver, the bulk form of
// ResolveRun: one run per stretch of consecutive mapped pages.
func (b *Base) VisitWritten(fn func(start, end int64)) {
	spp, n := int64(b.SPP), b.PMT.Len()
	for lpn := int64(0); lpn < n; lpn++ {
		if b.PMT.PPNOf(lpn) == flash.NilPPN {
			continue
		}
		first := lpn
		for lpn++; lpn < n && b.PMT.PPNOf(lpn) != flash.NilPPN; lpn++ {
		}
		fn(first*spp, lpn*spp)
	}
}

// Audit verifies the table's referential integrity — every materialised
// translation page must be a valid flash page tagged as that translation
// page — and hands each verified page to claim.
func (t *PagedTable) Audit(claim Claim) error {
	arr := t.dev.Array
	for id, loc := range t.loc {
		ppn := flash.PPN(loc)
		if ppn == flash.NilPPN {
			continue
		}
		if err := arr.Geo.CheckPPN(ppn); err != nil {
			return fmt.Errorf("mapstore: translation page %d: %w", id, err)
		}
		if !arr.Holds(ppn, TagMap, int64(id)) {
			if st := arr.State(ppn); st != flash.PageValid {
				return fmt.Errorf("mapstore: translation page %d is %v page %d", id, st, ppn)
			}
			return fmt.Errorf("mapstore: translation page %d page %d has foreign tag %+v", id, ppn, arr.TagOf(ppn))
		}
		if err := claim(ppn); err != nil {
			return fmt.Errorf("mapstore: translation page %d: %w", id, err)
		}
	}
	return nil
}

// AuditMapping implements check.Auditable for the baseline FTL and DFTL:
// the PMT plus, when it is demand-paged, the flash-resident translation
// pages behind its cache. Each owned page goes to the claim, when one is
// given.
func (s *Baseline) AuditMapping(claim ...Claim) error {
	own := ClaimOf(claim)
	if err := s.AuditPMT(own); err != nil || s.pmt == nil {
		return err
	}
	return s.pmt.Audit(own)
}
