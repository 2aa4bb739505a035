package acrossftl

import (
	"across/internal/clock"
	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/obs"
	"across/internal/trace"
)

// Write implements ftl.Scheme. The dispatch follows §3.3.1:
//
//   - an across-page write with no conflicting area becomes a Direct write:
//     one flash program into a freshly remapped area (Fig 5);
//   - a write that overlaps existing area(s) is folded in with AMerge while
//     the merged extent still fits one page (Fig 6 middle), profitable when
//     the trigger is itself across-page, unprofitable otherwise;
//   - otherwise ARollback dissolves the area(s) and writes everything back
//     through the normal page mapping (Fig 6 right);
//   - a non-across write that fully covers the area(s) simply supersedes
//     them and proceeds normally;
//   - anything that touches no area takes the baseline's page-mapped path
//     (ftl.Base.WritePages), RMW included.
func (s *Scheme) Write(r trace.Request, now float64) (float64, error) {
	if err := s.CheckRequest(r); err != nil {
		return now, err
	}
	w := reqSpan(r.Offset, r.End())
	isAcross := r.Classify(s.SPP) == trace.ClassAcross
	if isAcross {
		s.stats.AcrossWrites++
	}

	var confl []area
	if isAcross {
		confl = s.conflicting(w, r.FirstLPN(s.SPP))
	} else {
		confl = s.overlapping(w)
	}

	join := clock.NewJoin(now)
	var mapDelay float64
	var err error
	switch {
	case len(confl) == 0 && isAcross:
		mapDelay, err = s.directWrite(w, now, &join)
	case len(confl) == 0:
		mapDelay, err = s.WritePages(r, now, &join)
	default:
		union := w
		coveredAll := true
		for _, a := range confl {
			sp := s.spanOf(a.e)
			union = unionSpan(union, sp)
			if !w.contains(sp) {
				coveredAll = false
			}
		}
		switch {
		case coveredAll && !isAcross:
			mapDelay, err = s.supersedeAndWrite(r, confl, now, &join)
		case union.len() <= int64(s.SPP) && !s.opts.DisableAMerge:
			mapDelay, err = s.aMerge(w, union, confl, isAcross, now, &join)
		default:
			mapDelay, err = s.rollback(r, w, confl, now, &join)
		}
	}
	if err != nil {
		return now, err
	}
	join.AddDelay(mapDelay)
	return join.Done(), nil
}

// directWrite services a first-time across-page write: one program into a
// new across area (Fig 5's workflow, steps 1-4).
func (s *Scheme) directWrite(w span, now float64, join *clock.Join) (float64, error) {
	mapDelay := s.Dev.DRAMAccess(1) // PMT lookup of the first LPN's AIdx
	idx, done, err := s.createArea(w, now)
	if err != nil {
		return mapDelay, err
	}
	mapDelay += s.Dev.DRAMAccess(1)
	if _, _, err := s.amt.Touch(int64(idx), true, now); err != nil {
		return mapDelay, err
	}
	join.Add(done)
	s.stats.DirectWrites++
	if trc := s.Dev.Tracer(); trc != nil {
		trc.AcrossEvent(obs.AcrossDirect, w.Start, w.len(), now)
	}
	return mapDelay, nil
}

// supersedeAndWrite drops areas whose entire contents the incoming write
// replaces, then writes through the page-mapped path. No area data needs
// rescuing.
func (s *Scheme) supersedeAndWrite(r trace.Request, confl []area, now float64, join *clock.Join) (float64, error) {
	var mapDelay float64
	for _, a := range confl {
		mapDelay += s.Dev.DRAMAccess(1)
		if _, _, err := s.amt.Touch(int64(a.idx), true, now); err != nil {
			return mapDelay, err
		}
		if err := s.dissolve(a.idx); err != nil {
			return mapDelay, err
		}
		s.stats.Superseded++
	}
	if trc := s.Dev.Tracer(); trc != nil {
		trc.AcrossEvent(obs.AcrossSupersede, r.Offset, int64(r.Count), now)
	}
	d, err := s.WritePages(r, now, join)
	return mapDelay + d, err
}

// aMerge folds the write and every conflicting area into one new across
// area covering their union (which fits a single page). Area pages whose
// data the write fully replaces are not read; gap sectors covered by
// neither the write nor an area are fetched from the normal pages.
func (s *Scheme) aMerge(w, union span, confl []area, profitable bool, now float64, join *clock.Join) (float64, error) {
	var mapDelay float64
	issue := now
	covered := append(s.covBuf[:0], w)
	for _, a := range confl {
		mapDelay += s.Dev.DRAMAccess(1)
		ready, _, err := s.amt.Touch(int64(a.idx), true, now)
		if err != nil {
			return mapDelay, err
		}
		sp := s.spanOf(a.e)
		covered = append(covered, sp)
		if !w.contains(sp) {
			// Re-fetch: the cache touch may have triggered GC and moved it.
			rdone, err := s.Dev.Read(s.AMT.Get(a.idx).APPN, ready, ftl.OpData)
			if err != nil {
				return mapDelay, err
			}
			if rdone > issue {
				issue = rdone
			}
		}
	}
	s.covBuf = covered
	// Fetch gap sectors from normally mapped pages (at most the two pages
	// the union touches). Gaps come out ascending, so appending with a
	// same-as-last check yields the deduplicated page list.
	gapPages := s.lpnsBuf[:0]
	s.gapsBuf = appendGaps(s.gapsBuf[:0], union, covered)
	for _, g := range s.gapsBuf {
		for lpn := g.Start / int64(s.SPP); lpn <= (g.End-1)/int64(s.SPP); lpn++ {
			if n := len(gapPages); n == 0 || gapPages[n-1] != lpn {
				gapPages = append(gapPages, lpn)
			}
		}
	}
	s.lpnsBuf = gapPages
	for _, lpn := range gapPages {
		mapDelay += s.Dev.DRAMAccess(1)
		if ppn := s.PMT.PPNOf(lpn); ppn != flash.NilPPN {
			rdone, err := s.Dev.Read(ppn, now, ftl.OpData)
			if err != nil {
				return mapDelay, err
			}
			if rdone > issue {
				issue = rdone
			}
		}
	}
	for _, a := range confl {
		if err := s.dissolve(a.idx); err != nil {
			return mapDelay, err
		}
	}
	idx, done, err := s.createArea(union, issue)
	if err != nil {
		return mapDelay, err
	}
	mapDelay += s.Dev.DRAMAccess(1)
	if _, _, err := s.amt.Touch(int64(idx), true, now); err != nil {
		return mapDelay, err
	}
	join.Add(done)
	if profitable {
		s.stats.ProfitableAMerge++
	} else {
		s.stats.UnprofitableAMerge++
	}
	if trc := s.Dev.Tracer(); trc != nil {
		kind := obs.AcrossMergeUnprofitable
		if profitable {
			kind = obs.AcrossMergeProfitable
		}
		trc.AcrossEvent(kind, union.Start, union.len(), now)
	}
	return mapDelay, nil
}

// rollback dissolves the conflicting areas and writes the union of the
// incoming request and the rescued area data back through the normal page
// mapping (Fig 6 right): every affected page gets one full-page program,
// reading old area/normal pages as needed to assemble it.
func (s *Scheme) rollback(r trace.Request, w span, confl []area, now float64, join *clock.Join) (float64, error) {
	var mapDelay float64
	issue := now

	// Rescue area contents the write does not replace.
	areaSpans := s.spanBuf[:0]
	for _, a := range confl {
		mapDelay += s.Dev.DRAMAccess(1)
		ready, _, err := s.amt.Touch(int64(a.idx), true, now)
		if err != nil {
			return mapDelay, err
		}
		sp := s.spanOf(a.e)
		areaSpans = append(areaSpans, sp)
		if !w.contains(sp) {
			rdone, err := s.Dev.Read(s.AMT.Get(a.idx).APPN, ready, ftl.OpData)
			if err != nil {
				return mapDelay, err
			}
			if rdone > issue {
				issue = rdone
			}
		}
	}
	s.spanBuf = areaSpans

	// Affected logical pages, ascending and unique: everything the write
	// or an area touches. The set is a handful of pages, so sorted
	// insertion into a scratch slice replaces the map-and-sort.
	order := s.lpnsBuf[:0]
	for lpn := r.FirstLPN(s.SPP); lpn <= r.LastLPN(s.SPP); lpn++ {
		order = append(order, lpn)
	}
	for _, sp := range areaSpans {
		for lpn := sp.Start / int64(s.SPP); lpn <= (sp.End-1)/int64(s.SPP); lpn++ {
			order = insertSortedUnique(order, lpn)
		}
	}
	s.lpnsBuf = order

	// Assemble and program each affected page. Sectors supplied by neither
	// the write nor rescued area data come from the page's old copy (RMW).
	covered := append(s.covBuf[:0], w)
	covered = append(covered, areaSpans...)
	s.covBuf = covered
	for _, lpn := range order {
		mapDelay += s.Dev.DRAMAccess(1)
		pageWindow := span{lpn * int64(s.SPP), (lpn + 1) * int64(s.SPP)}
		pissue := issue
		if hasGaps(pageWindow, covered) {
			if old := s.PMT.PPNOf(lpn); old != flash.NilPPN {
				rdone, err := s.Dev.Read(old, now, ftl.OpData)
				if err != nil {
					return mapDelay, err
				}
				if rdone > pissue {
					pissue = rdone
				}
			}
		}
		done, err := s.ProgramData(lpn, pissue)
		if err != nil {
			return mapDelay, err
		}
		join.Add(done)
	}

	for _, a := range confl {
		if err := s.dissolve(a.idx); err != nil {
			return mapDelay, err
		}
		s.stats.Rollbacks++
	}
	if trc := s.Dev.Tracer(); trc != nil {
		trc.AcrossEvent(obs.AcrossRollback, w.Start, w.len(), now)
	}
	return mapDelay, nil
}
