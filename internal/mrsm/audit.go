package mrsm

import (
	"fmt"

	"across/internal/flash"
	"across/internal/ftl"
)

// AuditMapping implements check.Auditable: the sub-page location table, the
// per-page slot census, the pack buffer and the node table must agree with
// each other and with the flash array. Each censused page and translation
// page, once verified, goes to the claim when one is given.
//
// Each pass is one sequential walk: the buffer, the census page by page,
// then subLoc, which looks up the census slot of every mapped sub-page.
func (s *Scheme) AuditMapping(claim ...ftl.Claim) error {
	own := ftl.ClaimOf(claim)
	arr := s.Dev.Array
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
	// Census: every censused page is a valid, MRSM-tagged flash page whose
	// live count matches its occupied slots, and dead pages keep a fully
	// cleared census segment (installPack relies on it).
	pageOwner, subLoc, spp := s.pageOwner, s.subLoc, int32(s.subPerPg)
	var occupied int64
	for i, live := range s.pageLive {
		base := int32(i) * spp
		counted := 0
		for _, sub := range pageOwner[base : base+spp] {
			if sub != unmapped {
				counted++
			}
		}
		occupied += int64(counted)
		ppn := flash.PPN(i)
		if counted != int(live) {
			return fmt.Errorf("mrsm audit: page %d census live %d, counted %d", ppn, live, counted)
		}
		if live == 0 {
			continue
		}
		if !arr.Holds(ppn, ftl.TagMRSM, -1) {
			if st := arr.State(ppn); st != flash.PageValid {
				return fmt.Errorf("mrsm audit: censused page %d is %v", ppn, st)
			}
			return fmt.Errorf("mrsm audit: censused page %d has foreign tag %+v", ppn, arr.TagOf(ppn))
		}
		if err := own(ppn); err != nil {
			return fmt.Errorf("mrsm audit: censused page %d: %w", ppn, err)
		}
	}
	// Mapping: the slot every mapped sub-page names holds it. Sub-pages are
	// distinct, so the mapped ones hold distinct occupied slots, and as many
	// of them as there are occupied slots hold every one: the bijection.
	var mapped int64
	slots := uint32(len(pageOwner))
	for sub, loc := range subLoc {
		if loc == unmapped {
			continue
		}
		mapped++
		if uint32(loc) >= slots || pageOwner[loc] != int32(sub) {
			return fmt.Errorf("mrsm audit: sub %d claims slot %d, which the census does not give it", sub, loc)
		}
	}
	if mapped != occupied {
		return s.strayOwner(mapped, occupied)
	}
	return s.nodes.Audit(own)
}

// strayOwner names the occupied census slot no mapped sub-page holds — its
// owner is out of range or maps elsewhere — once the mapping pass has found
// fewer mapped sub-pages than occupied slots.
func (s *Scheme) strayOwner(mapped, occupied int64) error {
	spp := s.subPerPg
	for loc, sub := range s.pageOwner {
		switch {
		case sub == unmapped:
		case sub < 0 || int(sub) >= len(s.subLoc):
			return fmt.Errorf("mrsm audit: page %d slot %d holds out-of-range sub %d", loc/spp, loc%spp, sub)
		case s.subLoc[sub] != int32(loc):
			return fmt.Errorf("mrsm audit: page %d slot %d holds sub %d, which maps to %d",
				loc/spp, loc%spp, sub, s.subLoc[sub])
		}
	}
	return fmt.Errorf("mrsm audit: %d sub-pages mapped, census holds %d", mapped, occupied)
}

// ResolveRun implements check.SectorResolver: the sector's sub-page is
// either staged in the pack buffer (newest copy in controller RAM) or lives
// in the slot its location entry names. A staged or unmapped sub-page's run
// is the rest of the sub-page; a packed one's runs on over the following
// sub-pages packed into the same physical page, and ends at the first one
// that is unmapped, staged or packed elsewhere, so one resolution covers a
// whole multi-sub-page write. MRSM tags carry no owner key — GC resolves
// ownership through the slot census — so the expected OOB tag is the
// anonymous TagMRSM.
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
	spp := int32(s.subPerPg)
	ppn := loc / spp
	next := sub + 1
	for ; next < int64(len(s.subLoc)); next++ {
		if l := s.subLoc[next]; l == unmapped || l/spp != ppn || s.buffered(next) {
			break
		}
	}
	return ftl.SectorSource{
		Kind: ftl.SrcFlash,
		PPN:  flash.PPN(ppn),
		Tag:  flash.Tag{Kind: ftl.TagMRSM, Key: -1},
	}, min(next*subSec, n), nil
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
