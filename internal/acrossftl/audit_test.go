package acrossftl

import (
	"strings"
	"testing"
)

// TestAuditAreaDisjointnessRefusesOverlap: two neighbouring areas the write
// path kept apart are made to overlap by growing the first; the key-order
// pass must refuse them, and pass them again once repaired.
func TestAuditAreaDisjointnessRefusesOverlap(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0) // area keyed 128: [2056, 2068)
	mustWrite(t, s, 2076, 12, 1) // area keyed 129: [2076, 2088)
	if err := s.auditAreaDisjointness(); err != nil {
		t.Fatalf("disjoint areas refused: %v", err)
	}
	a, ok := s.areaAt(128)
	if !ok {
		t.Fatal("no area keyed at LPN 128")
	}
	grown := a.e
	grown.Size = 24 // [2056, 2080) reaches into the area keyed 129
	s.AMT.Update(a.idx, grown)
	if err := s.auditAreaDisjointness(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping areas: %v", err)
	}
	s.AMT.Update(a.idx, a.e)
	if err := s.auditAreaDisjointness(); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}
