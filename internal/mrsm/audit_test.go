package mrsm

import (
	"strings"
	"testing"

	"across/internal/check"
	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/trace"
)

// TestShadowDetectsClearedSubPageMidRequest: a sub-page whose location entry
// is dropped must fail the shadow check of a request that starts in a healthy
// sub-page of the same physical page.
func TestShadowDetectsClearedSubPageMidRequest(t *testing.T) {
	s, c := tinyScheme(t)
	page := trace.Request{Offset: 0, Count: int32(c.SectorsPerPage())}
	write(t, s, page.Offset, page.Count, 0)
	chk, err := check.New(s, check.Options{Shadow: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Dev.ResetMeasurement()
	if err := chk.BeginReplay(); err != nil {
		t.Fatal(err)
	}
	loc := s.subLoc[2]
	s.subLoc[2] = unmapped
	for _, op := range []func(trace.Request) error{chk.OnRead, chk.OnWrite} {
		if err := op(page); err == nil || !strings.Contains(err.Error(), "lost write") {
			t.Fatalf("shadow check of a page with a dropped sub-page: %v", err)
		}
	}
	s.subLoc[2] = loc
	if err := chk.OnRead(page); err != nil {
		t.Fatalf("shadow check after repair: %v", err)
	}
}

// TestAuditMappingRefusesBrokenBijection plants one defect per invariant the
// sequential passes stand for — the ones a per-sub-page walk checked by
// random access — and requires each to be refused.
func TestAuditMappingRefusesBrokenBijection(t *testing.T) {
	cases := []struct {
		name  string
		plant func(t *testing.T, s *Scheme)
		want  string
	}{
		{"sub maps to an empty slot", func(t *testing.T, s *Scheme) { s.subLoc[1] = s.subLoc[0] | 3 }, "census does not give it"},
		{"sub maps past the census", func(t *testing.T, s *Scheme) { s.subLoc[1] = int32(len(s.pageOwner)) }, "census does not give it"},
		{"buffered sub keeps its slot", func(t *testing.T, s *Scheme) { s.bufList = append(s.bufList, 0) }, "buffered sub 0"},
		{"buffered sub out of range", func(t *testing.T, s *Scheme) { s.bufList = append(s.bufList, int64(len(s.subLoc))) }, "out-of-range"},
		{"censused page with a foreign tag", func(t *testing.T, s *Scheme) {
			// Move sub 0 and its census onto the next page of its block,
			// programmed as a data page.
			from := s.subLoc[0] / int32(s.subPerPg)
			to := from + 1
			if err := s.Dev.Array.Program(flash.PPN(to), flash.Tag{Kind: ftl.TagData, Key: 0}); err != nil {
				t.Fatal(err)
			}
			s.pageOwner[from*int32(s.subPerPg)], s.pageLive[from] = unmapped, 0
			s.pageOwner[to*int32(s.subPerPg)], s.pageLive[to] = 0, 1
			s.subLoc[0] = to * int32(s.subPerPg)
		}, "foreign tag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := tinyScheme(t)
			write(t, s, 0, 4, 0) // one sub-page: slots 1..3 of its page stay empty
			if err := s.AuditMapping(); err != nil {
				t.Fatalf("audit of a healthy scheme: %v", err)
			}
			tc.plant(t, s)
			if err := s.AuditMapping(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// subSource resolves one sub-page on its own: the per-sub-page resolution a
// run may not outrun.
func subSource(s *Scheme, sub int64) ftl.SectorSource {
	if s.buffered(sub) {
		return ftl.SectorSource{Kind: ftl.SrcBuffered}
	}
	loc := s.subLoc[sub]
	if loc == unmapped {
		return ftl.SectorSource{Kind: ftl.SrcUnwritten}
	}
	return ftl.SectorSource{
		Kind: ftl.SrcFlash,
		PPN:  flash.PPN(loc / int32(s.subPerPg)),
		Tag:  flash.Tag{Kind: ftl.TagMRSM, Key: -1},
	}
}

// checkRunsAgainstSubPages requires ResolveRun, from every sector of the
// first subs sub-pages, to give the sub-page's own source and to end exactly
// where it should: a packed sub-page's run at the first following sub-page
// that is unmapped, staged or packed in another page; any other run at its
// sub-page's end. It returns how many runs ended for each reason.
func checkRunsAgainstSubPages(t *testing.T, s *Scheme, subs int64) (multi, pageChange, unwritten, staged int) {
	t.Helper()
	subSec, n := int64(s.subSec), s.LogicalSectors()
	for sec := int64(0); sec < subs*subSec; sec++ {
		sub := sec / subSec
		want := subSource(s, sub)
		next := sub + 1
		if want.Kind == ftl.SrcFlash {
			for next < int64(len(s.subLoc)) && subSource(s, next) == want {
				next++
			}
		}
		src, end, err := s.ResolveRun(sec)
		if err != nil {
			t.Fatalf("ResolveRun(%d): %v", sec, err)
		}
		if src != want || end != min(next*subSec, n) {
			t.Fatalf("ResolveRun(%d) = %+v, end %d; sub-page %d resolves to %+v, run should end at %d",
				sec, src, end, sub, want, min(next*subSec, n))
		}
		if sec%subSec != 0 || want.Kind != ftl.SrcFlash {
			continue
		}
		if next > sub+1 {
			multi++
		}
		switch subSource(s, next).Kind {
		case ftl.SrcFlash:
			pageChange++
		case ftl.SrcUnwritten:
			unwritten++
		case ftl.SrcBuffered:
			staged++
		}
	}
	return multi, pageChange, unwritten, staged
}

// TestResolveRunStopsAtPackedPageBoundary: a packed sub-page's run covers
// the following sub-pages packed into the same physical page and ends
// exactly where the packed page changes or at an unmapped or staged
// sub-page — never past what resolving each sub-page on its own allows, even
// when a staged sub-page still names a slot in the same page.
func TestResolveRunStopsAtPackedPageBoundary(t *testing.T) {
	s, _ := tinyScheme(t)
	write(t, s, 0, 20, 0)  // subs 0-3 packed into one page, sub 4 into the next
	write(t, s, 24, 12, 1) // subs 6-8 share a page; sub 5 stays unmapped
	write(t, s, 40, 4, 2)  // sub 10 alone, next to...
	write(t, s, 44, 8, 3)  // ...subs 11-12 in another page
	write(t, s, 4, 4, 4)   // sub 1 moves out of sub 0's page
	// Stage sub 7 the way a write does mid-request: its old copy is
	// invalidated and the newest copy waits in the pack buffer.
	if err := s.invalidateSub(7); err != nil {
		t.Fatal(err)
	}
	s.bufList = append(s.bufList, 7)
	multi, pageChange, unwritten, staged := checkRunsAgainstSubPages(t, s, 16)
	if multi == 0 || pageChange == 0 || unwritten == 0 || staged == 0 {
		t.Fatalf("layout does not exercise every run end: %d multi-sub-page runs, %d ended by a page change, %d by an unmapped, %d by a staged sub-page",
			multi, pageChange, unwritten, staged)
	}
	// A staged sub-page that still names its slot (the audit refuses the
	// state) ends the run of its page-mates all the same.
	s.bufList = append(s.bufList, 3)
	if _, end, err := s.ResolveRun(2 * int64(s.subSec)); err != nil || end != 3*int64(s.subSec) {
		t.Fatalf("run from sub 2 with sub 3 staged but still packed: end %d (%v), want %d", end, err, 3*s.subSec)
	}
	checkRunsAgainstSubPages(t, s, 16)
}

// TestAuditMappingNamesStrayOwner: an occupied census slot that no mapped
// sub-page holds, on a page whose live count agrees, passes the census and
// the mapping walk and is caught by the count; the audit names the slot.
func TestAuditMappingNamesStrayOwner(t *testing.T) {
	for _, tc := range []struct {
		name  string
		owner func(s *Scheme) int32
		want  string
	}{
		{"out-of-range owner", func(s *Scheme) int32 { return int32(len(s.subLoc)) }, "out-of-range sub"},
		{"owner mapped elsewhere", func(s *Scheme) int32 { return 0 }, "holds sub 0, which maps to"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := tinyScheme(t)
			write(t, s, 0, 4, 0) // sub 0 in slot 0; slots 1..3 stay empty
			page := s.subLoc[0] / int32(s.subPerPg)
			s.pageOwner[s.subLoc[0]+1] = tc.owner(s)
			s.pageLive[page]++
			if err := s.AuditMapping(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
