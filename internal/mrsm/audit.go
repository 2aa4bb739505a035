package mrsm

import (
	"fmt"

	"across/internal/flash"
	"across/internal/ftl"
)

// AuditMapping implements check.Auditable: the sub-page location table, the
// per-page slot census, the pack buffer and the map store must agree with
// each other and with the flash array.
//
// Every pass is sequential over one table: the census page by page, then a
// count over subLoc. The forward half of the bijection (every mapped
// sub-page points into a valid, MRSM-tagged page whose census names it in
// that slot) follows from the reverse pass plus the count, without a random
// access per sub-page.
func (s *Scheme) AuditMapping() error {
	// Pack buffer: never overfull, no sub-page staged twice, and a staged
	// sub-page has no flash location (staging invalidates the old copy).
	if len(s.bufList) >= s.subPerPg {
		return fmt.Errorf("mrsm audit: pack buffer holds %d sub-pages, flush threshold is %d",
			len(s.bufList), s.subPerPg)
	}
	for i, sub := range s.bufList {
		if sub < 0 || sub >= int64(len(s.subLoc)) {
			return fmt.Errorf("mrsm audit: buffer slot %d holds out-of-range sub %d", i, sub)
		}
		if loc := s.subLoc[sub]; loc != unmapped {
			return fmt.Errorf("mrsm audit: buffered sub %d still has flash location %d", sub, loc)
		}
		for j := 0; j < i; j++ {
			if s.bufList[j] == sub {
				return fmt.Errorf("mrsm audit: sub %d staged in buffer slots %d and %d", sub, j, i)
			}
		}
	}
	// Reverse: every censused page is a valid, MRSM-tagged flash page, its
	// live count matches its occupied slots, every occupied slot points
	// back, and dead pages keep a fully cleared census segment (installPack
	// relies on it).
	var occupied int64
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
		occupied += int64(counted)
		if live == 0 {
			continue
		}
		if st := s.Dev.Array.State(ppn); st != flash.PageValid {
			return fmt.Errorf("mrsm audit: censused page %d is %v", ppn, st)
		}
		if tag := s.Dev.Array.TagOf(ppn); tag.Kind != ftl.TagMRSM {
			return fmt.Errorf("mrsm audit: censused page %d has foreign tag %+v", ppn, tag)
		}
		if counted != int(live) {
			return fmt.Errorf("mrsm audit: page %d census live %d, counted %d", ppn, live, counted)
		}
	}
	// Forward, by count: each occupied slot names a distinct sub-page that
	// maps back to it, so the mapped sub-pages are exactly the slots' owners
	// when there are as many of them as occupied slots. A surplus is a
	// sub-page whose slot the census does not give it.
	var mapped int64
	for _, loc := range s.subLoc {
		if loc != unmapped {
			mapped++
		}
	}
	if mapped != occupied {
		for sub, loc := range s.subLoc {
			if loc != unmapped && (loc < 0 || int(loc) >= len(s.pageOwner) || s.pageOwner[loc] != int32(sub)) {
				return fmt.Errorf("mrsm audit: sub %d claims slot %d, which the census does not give it", sub, loc)
			}
		}
		return fmt.Errorf("mrsm audit: %d sub-pages mapped, census holds %d", mapped, occupied)
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

// ResolveRun implements check.SectorResolver: the sector's sub-page is
// either staged in the pack buffer (newest copy in controller RAM) or lives
// in the slot its location entry names, so its run is the rest of the
// sub-page. MRSM tags carry no owner key — GC resolves ownership through the
// slot census — so the expected OOB tag is the anonymous TagMRSM.
func (s *Scheme) ResolveRun(sec int64) (ftl.SectorSource, int64, error) {
	n := s.LogicalSectors()
	if sec < 0 || sec >= n {
		return ftl.SectorSource{}, 0, fmt.Errorf("mrsm: sector %d outside device", sec)
	}
	subSec := int64(s.subSec)
	sub := sec / subSec
	end := min((sub+1)*subSec, n)
	if s.buffered(sub) {
		return ftl.SectorSource{Kind: ftl.SrcBuffered}, end, nil
	}
	loc := s.subLoc[sub]
	if loc == unmapped {
		return ftl.SectorSource{Kind: ftl.SrcUnwritten}, end, nil
	}
	return ftl.SectorSource{
		Kind: ftl.SrcFlash,
		PPN:  flash.PPN(loc / int32(s.subPerPg)),
		Tag:  flash.Tag{Kind: ftl.TagMRSM, Key: -1},
	}, end, nil
}

// VisitWritten implements check.SectorResolver, the bulk form of
// ResolveRun: one run per stretch of consecutive mapped sub-pages, then
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
