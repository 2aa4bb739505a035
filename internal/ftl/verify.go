package ftl

import (
	"fmt"

	"across/internal/flash"
)

// This file defines the scheme-side vocabulary of the verification layer
// (internal/check): where a logical sector's current contents live, and the
// shared audit/enumeration helpers for the structures every scheme embeds
// (the PMT and the MapStore). The interfaces themselves — Auditable and
// SectorResolver — are declared in internal/check; schemes satisfy them
// structurally without importing it.

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

// AuditPMT verifies the data-page half of the shared page mapping table:
// every mapped logical page must reference a valid flash page whose OOB tag
// names that page as its owner.
func (b *Base) AuditPMT() error {
	for lpn := int64(0); lpn < b.PMT.Len(); lpn++ {
		ppn := b.PMT.PPNOf(lpn)
		if ppn == flash.NilPPN {
			continue
		}
		if err := b.Dev.Array.Geo.CheckPPN(ppn); err != nil {
			return fmt.Errorf("pmt: lpn %d: %w", lpn, err)
		}
		if st := b.Dev.Array.State(ppn); st != flash.PageValid {
			return fmt.Errorf("pmt: lpn %d maps to %v page %d", lpn, st, ppn)
		}
		tag := b.Dev.Array.TagOf(ppn)
		if tag.Kind != TagData || tag.Key != lpn {
			return fmt.Errorf("pmt: lpn %d page %d has foreign tag %+v", lpn, ppn, tag)
		}
	}
	return nil
}

// VisitPMT enumerates the flash pages the PMT owns.
func (b *Base) VisitPMT(fn func(flash.PPN) error) error {
	for lpn := int64(0); lpn < b.PMT.Len(); lpn++ {
		if ppn := b.PMT.PPNOf(lpn); ppn != flash.NilPPN {
			if err := fn(ppn); err != nil {
				return err
			}
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

// Audit verifies the map store's referential integrity: every materialised
// translation page must be a valid flash page tagged as that translation
// page.
func (m *MapStore) Audit() error {
	for id := range m.loc {
		ppn := flash.PPN(m.loc[id])
		if ppn == flash.NilPPN {
			continue
		}
		if st := m.dev.Array.State(ppn); st != flash.PageValid {
			return fmt.Errorf("mapstore: translation page %d is %v page %d", id, st, ppn)
		}
		tag := m.dev.Array.TagOf(ppn)
		if tag.Kind != TagMap || tag.Key != int64(id) {
			return fmt.Errorf("mapstore: translation page %d page %d has foreign tag %+v", id, ppn, tag)
		}
	}
	return nil
}

// VisitPages enumerates the flash pages holding materialised translation
// pages, in translation-page id order.
func (m *MapStore) VisitPages(fn func(flash.PPN) error) error {
	for _, ppn := range m.loc {
		if flash.PPN(ppn) == flash.NilPPN {
			continue
		}
		if err := fn(flash.PPN(ppn)); err != nil {
			return err
		}
	}
	return nil
}

// AuditMapping implements check.Auditable for the baseline FTL: its only
// mapping structure is the DRAM-resident PMT.
func (s *Baseline) AuditMapping() error { return s.AuditPMT() }

// VisitOwned implements check.Auditable for the baseline FTL.
func (s *Baseline) VisitOwned(fn func(flash.PPN) error) error { return s.VisitPMT(fn) }

// AuditMapping implements check.Auditable for DFTL: the baseline's PMT plus
// the flash-resident translation pages behind the cached mapping table.
func (s *DFTL) AuditMapping() error {
	if err := s.AuditPMT(); err != nil {
		return err
	}
	return s.ms.Audit()
}

// VisitOwned implements check.Auditable for DFTL.
func (s *DFTL) VisitOwned(fn func(flash.PPN) error) error {
	if err := s.VisitPMT(fn); err != nil {
		return err
	}
	return s.ms.VisitPages(fn)
}
