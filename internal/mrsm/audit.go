package mrsm

import (
	"fmt"

	"across/internal/flash"
	"across/internal/ftl"
)

// AuditMapping implements check.Auditable: the sub-page location table, the
// per-page slot census, the pack buffer and the map store must agree with
// each other and with the flash array.
func (s *Scheme) AuditMapping() error {
	// Forward: every mapped sub-page points into a valid packed page whose
	// census names it in exactly that slot. Buffered sub-pages must have no
	// flash location (staging invalidates the old copy).
	for sub := int64(0); sub < int64(len(s.subLoc)); sub++ {
		loc := s.subLoc[sub]
		if s.buffered(sub) && loc != unmapped {
			return fmt.Errorf("mrsm audit: buffered sub %d still has flash location %d", sub, loc)
		}
		if loc == unmapped {
			continue
		}
		ppn := flash.PPN(loc / int32(s.subPerPg))
		slot := int(loc % int32(s.subPerPg))
		if st := s.Dev.Array.State(ppn); st != flash.PageValid {
			return fmt.Errorf("mrsm audit: sub %d maps to %v page %d", sub, st, ppn)
		}
		tag := s.Dev.Array.TagOf(ppn)
		if tag.Kind != ftl.TagMRSM {
			return fmt.Errorf("mrsm audit: sub %d page %d has foreign tag %+v", sub, ppn, tag)
		}
		if s.pageLive[ppn] == 0 {
			return fmt.Errorf("mrsm audit: sub %d maps to page %d with no slot census", sub, ppn)
		}
		if got := int64(s.pageOwner[loc]); got != sub {
			return fmt.Errorf("mrsm audit: sub %d claims page %d slot %d, census says sub %d",
				sub, ppn, slot, got)
		}
	}
	// Reverse: every censused page is a valid flash page, its live count
	// matches its occupied slots, every occupied slot points back, and dead
	// pages keep a fully cleared census segment (installPack relies on it).
	for i, live := range s.pageLive {
		ppn := flash.PPN(i)
		base := int32(i) * int32(s.subPerPg)
		counted := 0
		for slot := int32(0); slot < int32(s.subPerPg); slot++ {
			sub := s.pageOwner[base+slot]
			if sub == unmapped {
				continue
			}
			counted++
			if live == 0 {
				return fmt.Errorf("mrsm audit: dead page %d still owns sub %d in slot %d", ppn, sub, slot)
			}
			if sub < 0 || int(sub) >= len(s.subLoc) {
				return fmt.Errorf("mrsm audit: page %d slot %d holds out-of-range sub %d", ppn, slot, sub)
			}
			if s.subLoc[sub] != base+slot {
				return fmt.Errorf("mrsm audit: page %d slot %d holds sub %d, which maps to %d",
					ppn, slot, sub, s.subLoc[sub])
			}
		}
		if live == 0 {
			continue
		}
		if st := s.Dev.Array.State(ppn); st != flash.PageValid {
			return fmt.Errorf("mrsm audit: censused page %d is %v", ppn, st)
		}
		if counted != int(live) {
			return fmt.Errorf("mrsm audit: page %d census live %d, counted %d", ppn, live, counted)
		}
	}
	// Pack buffer: never overfull, and no sub-page staged twice.
	if len(s.bufList) >= s.subPerPg {
		return fmt.Errorf("mrsm audit: pack buffer holds %d sub-pages, flush threshold is %d",
			len(s.bufList), s.subPerPg)
	}
	for i, sub := range s.bufList {
		for j := 0; j < i; j++ {
			if s.bufList[j] == sub {
				return fmt.Errorf("mrsm audit: sub %d staged in buffer slots %d and %d", sub, j, i)
			}
		}
	}
	return s.ms.Audit()
}

// VisitOwned implements check.Auditable: the packed data pages in the census
// plus the map store's translation pages.
func (s *Scheme) VisitOwned(fn func(flash.PPN) error) error {
	for i, live := range s.pageLive {
		if live == 0 {
			continue
		}
		if err := fn(flash.PPN(i)); err != nil {
			return err
		}
	}
	return s.ms.VisitPages(fn)
}

// ResolveSector implements check.SectorResolver: the sector's sub-page is
// either staged in the pack buffer (newest copy in controller RAM) or lives
// in the slot its location entry names. MRSM tags carry no owner key — GC
// resolves ownership through the slot census — so the expected OOB tag is
// the anonymous TagMRSM.
func (s *Scheme) ResolveSector(sec int64) (ftl.SectorSource, error) {
	if sec < 0 || sec >= s.LogicalSectors() {
		return ftl.SectorSource{}, fmt.Errorf("mrsm: sector %d outside device", sec)
	}
	sub := sec / int64(s.subSec)
	if s.buffered(sub) {
		return ftl.SectorSource{Kind: ftl.SrcBuffered}, nil
	}
	loc := s.subLoc[sub]
	if loc == unmapped {
		return ftl.SectorSource{Kind: ftl.SrcUnwritten}, nil
	}
	return ftl.SectorSource{
		Kind: ftl.SrcFlash,
		PPN:  flash.PPN(loc / int32(s.subPerPg)),
		Tag:  flash.Tag{Kind: ftl.TagMRSM, Key: -1},
	}, nil
}

// VisitWritten implements check.SectorResolver, the bulk form of
// ResolveSector: one run per stretch of consecutive mapped sub-pages, then
// the sub-pages staged in the pack buffer.
func (s *Scheme) VisitWritten(fn func(start, end int64)) {
	sec, n := int64(s.subSec), int64(len(s.subLoc))
	for sub := int64(0); sub < n; sub++ {
		if s.subLoc[sub] == unmapped {
			continue
		}
		first := sub
		for sub++; sub < n && s.subLoc[sub] != unmapped; sub++ {
		}
		fn(first*sec, sub*sec)
	}
	for _, sub := range s.bufList {
		fn(sub*sec, (sub+1)*sec)
	}
}
