package flash

import (
	"testing"

	"across/internal/ssdconf"
)

// TestChipOfMatchesChain pins ChipOf's single division to the three it
// replaced, ChipOfPlane(PlaneOfBlock(BlockOf(p))): every page of the
// Experiment device, the first and last 2^16 pages of every chip of a
// Scaled(16) one, every page of a geometry whose factors are not powers of
// two, and the negative PPNs just below each (NilPPN included).
func TestChipOfMatchesChain(t *testing.T) {
	odd := ssdconf.Tiny()
	odd.PagesPerBlock, odd.BlocksPerPlane, odd.PlanesPerDie = 7, 13, 3
	const edge = 1 << 16
	for _, tc := range []struct {
		name string
		conf ssdconf.Config
		edge int64 // pages checked at each end of a chip; 0 = all
	}{
		{"experiment", ssdconf.Experiment(), 0},
		{"scaled16", ssdconf.Scaled(16), edge},
		{"non-power-of-two", odd, 0},
	} {
		g := NewGeometry(&tc.conf)
		perChip := g.TotalPages() / int64(g.Chips)
		check := func(p PPN) {
			if got, want := g.ChipOf(p), g.ChipOfPlane(g.PlaneOfBlock(g.BlockOf(p))); got != want {
				t.Fatalf("%s: ChipOf(%d) = %d, the chain says %d", tc.name, p, got, want)
			}
		}
		for chip := int64(0); chip < int64(g.Chips); chip++ {
			lo, hi := chip*perChip, (chip+1)*perChip
			if tc.edge == 0 || 2*tc.edge >= perChip {
				for p := lo; p < hi; p++ {
					check(PPN(p))
				}
				continue
			}
			for p := lo; p < lo+tc.edge; p++ {
				check(PPN(p))
			}
			for p := hi - tc.edge; p < hi; p++ {
				check(PPN(p))
			}
		}
		if last := g.ChipOf(PPN(g.TotalPages() - 1)); int(last) != g.Chips-1 {
			t.Fatalf("%s: last page is on chip %d of %d", tc.name, last, g.Chips)
		}
		for p := -2 * perChip; p < 0; p += 1 + perChip/997 {
			check(PPN(p))
		}
		check(NilPPN)
	}
}
