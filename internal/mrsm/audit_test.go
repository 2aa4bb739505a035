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
