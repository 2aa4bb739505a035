package acrossftl

import (
	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/mapping"
)

// span is a half-open absolute sector interval [Start, End).
type span struct {
	Start, End int64
}

func (sp span) len() int64             { return sp.End - sp.Start }
func (sp span) intersects(o span) bool { return sp.Start < o.End && o.Start < sp.End }
func (sp span) contains(o span) bool   { return sp.Start <= o.Start && o.End <= sp.End }

func unionSpan(a, b span) span {
	if a.Start > b.Start {
		a.Start = b.Start
	}
	if a.End < b.End {
		a.End = b.End
	}
	return a
}

// appendGaps appends the ascending, disjoint uncovered sub-intervals of
// window to dst and returns the extended slice. The sweep is quadratic in
// len(covered), which is at most a handful of areas per request, and does
// no allocation or sorting — the replay hot path calls it per request.
func appendGaps(dst []span, window span, covered []span) []span {
	cur := window.Start
	for cur < window.End {
		// Advance cur through every covering interval that contains it.
		for advanced := true; advanced; {
			advanced = false
			for _, c := range covered {
				if c.Start <= cur && c.End > cur {
					cur = c.End
					advanced = true
				}
			}
		}
		if cur >= window.End {
			break
		}
		// A gap starts at cur and runs to the nearest covering start.
		gapEnd := window.End
		for _, c := range covered {
			if c.Start > cur && c.Start < gapEnd {
				gapEnd = c.Start
			}
		}
		dst = append(dst, span{cur, gapEnd})
		cur = gapEnd
	}
	return dst
}

// hasGaps reports whether any sector of window is uncovered — the
// allocation-free form rollback uses per affected page.
func hasGaps(window span, covered []span) bool {
	cur := window.Start
	for advanced := true; advanced; {
		advanced = false
		for _, c := range covered {
			if c.Start <= cur && c.End > cur {
				cur = c.End
				advanced = true
			}
		}
	}
	return cur < window.End
}

// insertSortedUnique inserts v into an ascending slice unless present,
// returning the extended slice. The slices involved hold at most a few
// logical page numbers, so linear insertion beats map-and-sort without
// allocating.
func insertSortedUnique(dst []int64, v int64) []int64 {
	i := len(dst)
	for i > 0 && dst[i-1] > v {
		i--
	}
	if i > 0 && dst[i-1] == v {
		return dst
	}
	dst = append(dst, 0)
	copy(dst[i+1:], dst[i:])
	dst[i] = v
	return dst
}

// area pairs a live AMT index with its entry.
type area struct {
	idx int32
	e   mapping.AMTEntry
}

// spanOf returns the absolute sector interval an area covers.
func (s *Scheme) spanOf(e mapping.AMTEntry) span {
	base := e.LPN * int64(s.SPP)
	return span{base + int64(e.Off), base + int64(e.End())}
}

// reqSpan returns the absolute sector interval of a request span [off, end).
func reqSpan(off, end int64) span { return span{off, end} }

// areaAt returns the live area keyed at lpn, if any.
func (s *Scheme) areaAt(lpn int64) (area, bool) {
	if lpn < 0 || lpn >= s.PMT.Len() {
		return area{}, false
	}
	idx := s.PMT.AIdxOf(lpn)
	if idx == mapping.NoAIdx {
		return area{}, false
	}
	return area{idx: idx, e: s.AMT.Get(idx)}, true
}

// overlapping collects the live areas whose sector range intersects w.
// An area keyed at LPN L covers sectors inside pages L and L+1, so any area
// intersecting w must be keyed between firstLPN(w)-1 and lastLPN(w).
// The returned slice aliases a per-scheme scratch buffer: it is valid until
// the next overlapping/conflicting call and must not be retained.
func (s *Scheme) overlapping(w span) []area {
	first := w.Start/int64(s.SPP) - 1
	last := (w.End - 1) / int64(s.SPP)
	out := s.areasBuf[:0]
	for lpn := first; lpn <= last; lpn++ {
		if a, ok := s.areaAt(lpn); ok && s.spanOf(a.e).intersects(w) {
			out = append(out, a)
		}
	}
	s.areasBuf = out
	return out
}

// conflicting returns the areas an across write keyed at key must reconcile
// with: every sector-overlapping area plus (key collision) a disjoint area
// already keyed at the same first LPN, since the PMT holds one AIdx per LPN.
func (s *Scheme) conflicting(w span, key int64) []area {
	out := s.overlapping(w)
	if a, ok := s.areaAt(key); ok {
		seen := false
		for _, o := range out {
			if o.idx == a.idx {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, a)
			s.areasBuf = out
		}
	}
	return out
}

// dissolve removes an area from both mapping levels and invalidates its
// physical page. The caller has already secured any data it still needs.
// The entry is re-fetched by index: a garbage collection triggered by an
// allocation earlier in the same write path may have migrated the area's
// page, so any APPN snapshot taken before that allocation is stale.
func (s *Scheme) dissolve(idx int32) error {
	e := s.AMT.Get(idx)
	if err := s.Dev.Invalidate(e.APPN); err != nil {
		return err
	}
	s.PMT.ClearAIdx(e.LPN)
	s.AMT.Free(idx)
	return nil
}

// createArea installs a new across-page area covering w, programs its data
// page at time issue, and returns the program completion time. The caller
// charges the AMT cache touch.
func (s *Scheme) createArea(w span, issue float64) (int32, float64, error) {
	key := w.Start / int64(s.SPP)
	base := key * int64(s.SPP)
	idx := s.AMT.Alloc(mapping.AMTEntry{
		LPN:  key,
		Off:  int32(w.Start - base),
		Size: int32(w.len()),
		APPN: flash.NilPPN,
	})
	ppn, err := s.Al.AllocPage(issue)
	if err != nil {
		s.AMT.Free(idx)
		return 0, issue, err
	}
	tag := flash.Tag{
		Kind: ftl.TagAcross,
		Key:  int64(idx),
		Aux:  packAux(key, int32(w.Start-base), int32(w.len())),
	}
	done, err := s.Dev.Program(ppn, tag, issue, ftl.OpData)
	if err != nil {
		return 0, issue, err
	}
	s.AMT.SetAPPN(idx, ppn)
	s.PMT.SetAIdx(key, idx)
	return idx, done, nil
}
