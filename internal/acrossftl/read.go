package acrossftl

import (
	"across/internal/clock"
	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/obs"
	"across/internal/trace"
)

// Source is one flash page a read plan draws from, with the absolute sector
// interval it supplies. Reads of never-written sectors have no source (the
// controller returns zeroes).
type Source struct {
	PPN      flash.PPN
	Start    int64 // absolute sector
	End      int64 // exclusive
	FromArea bool
	AMTIdx   int32 // valid when FromArea
	LPN      int64 // valid when !FromArea
}

// planRead resolves a read request into its flash sources without side
// effects (§3.3.2): sectors covered by a live across-page area come from the
// area's page (newest data); the remainder comes from the normally mapped
// pages. Tests use the plan to verify source-selection correctness.
// The returned slice aliases a per-scheme scratch buffer: it is valid until
// the next planRead call and must not be retained.
func (s *Scheme) planRead(r trace.Request) []Source {
	w := reqSpan(r.Offset, r.End())
	areas := s.overlapping(w)
	srcs := s.srcsBuf[:0]
	covered := s.covBuf[:0]
	for _, a := range areas {
		sp := s.spanOf(a.e)
		covered = append(covered, sp)
		inter := sp
		if inter.Start < w.Start {
			inter.Start = w.Start
		}
		if inter.End > w.End {
			inter.End = w.End
		}
		srcs = append(srcs, Source{
			PPN: a.e.APPN, Start: inter.Start, End: inter.End,
			FromArea: true, AMTIdx: a.idx,
		})
	}
	s.covBuf = covered
	// Group uncovered sectors by logical page; one read per mapped page.
	// Gaps come out ascending, so the per-page needs build sorted and
	// same-page ranges from adjacent gaps merge in place.
	needs := s.needsBuf[:0]
	s.gapsBuf = appendGaps(s.gapsBuf[:0], w, covered)
	for _, g := range s.gapsBuf {
		for lpn := g.Start / int64(s.SPP); lpn <= (g.End-1)/int64(s.SPP); lpn++ {
			pw := span{lpn * int64(s.SPP), (lpn + 1) * int64(s.SPP)}
			lo, hi := g.Start, g.End
			if lo < pw.Start {
				lo = pw.Start
			}
			if hi > pw.End {
				hi = pw.End
			}
			if n := len(needs); n > 0 && needs[n-1].lpn == lpn {
				if lo < needs[n-1].lo {
					needs[n-1].lo = lo
				}
				if hi > needs[n-1].hi {
					needs[n-1].hi = hi
				}
			} else {
				needs = append(needs, pageNeed{lpn, lo, hi})
			}
		}
	}
	s.needsBuf = needs
	for _, n := range needs {
		ppn := s.PMT.PPNOf(n.lpn)
		if ppn == flash.NilPPN {
			continue // never written: zeroes, no flash work
		}
		srcs = append(srcs, Source{PPN: ppn, Start: n.lo, End: n.hi, LPN: n.lpn})
	}
	s.srcsBuf = srcs
	return srcs
}

// Read implements ftl.Scheme. A direct read (range within one area) costs a
// single page read — the win of Fig 7(a); a merged read additionally fetches
// the normal pages, costing the same as the conventional FTL (Fig 7b).
func (s *Scheme) Read(r trace.Request, now float64) (float64, error) {
	if err := s.CheckRequest(r); err != nil {
		return now, err
	}
	w := reqSpan(r.Offset, r.End())
	isAcross := r.Classify(s.SPP) == trace.ClassAcross
	if isAcross {
		s.stats.AcrossReads++
	}
	srcs := s.planRead(r)

	join := clock.NewJoin(now)
	var mapDelay float64
	var areaSrcs, flashReads int
	coveredByOneArea := false
	for _, src := range srcs {
		if src.FromArea {
			areaSrcs++
			mapDelay += s.Dev.DRAMAccess(1)
			ready, _, err := s.amt.Touch(int64(src.AMTIdx), false, now)
			if err != nil {
				return now, err
			}
			// Re-fetch the area page: the cache touch may have triggered
			// GC, which migrates pages and erases their old location.
			done, err := s.Dev.Read(s.AMT.Get(src.AMTIdx).APPN, ready, ftl.OpData)
			if err != nil {
				return now, err
			}
			join.Add(done)
			flashReads++
			if src.Start == w.Start && src.End == w.End {
				coveredByOneArea = true
			}
		} else {
			mapDelay += s.Dev.DRAMAccess(1)
			done, err := s.Dev.Read(s.PMT.PPNOf(src.LPN), now, ftl.OpData)
			if err != nil {
				return now, err
			}
			join.Add(done)
			flashReads++
		}
	}
	if areaSrcs > 0 {
		if coveredByOneArea && len(srcs) == 1 {
			s.stats.DirectReads++
			if trc := s.Dev.Tracer(); trc != nil {
				trc.AcrossEvent(obs.AcrossDirectRead, w.Start, w.len(), now)
			}
		} else {
			s.stats.MergedReads++
			s.stats.MergedReadFlashReads += int64(flashReads)
			if trc := s.Dev.Tracer(); trc != nil {
				trc.AcrossEvent(obs.AcrossMergedRead, w.Start, w.len(), now)
			}
		}
	}
	join.AddDelay(mapDelay)
	return join.Done(), nil
}
