package acrossftl

import (
	"testing"

	"across/internal/ssdconf"
	"across/internal/trace"
)

// TestExhaustivePairsOverThreePages enumerates every ordered pair of writes
// whose extents lie within a three-page window (all offsets × all sizes up
// to one page), runs each pair on a fresh scheme, and audits the two-level
// mapping after every operation. This systematically covers every dispatch
// combination — direct write, key collision, AMerge (profitable and not),
// ARollback, supersede, plain RMW — including the adjacency corner cases
// randomised testing hits only occasionally.
func TestExhaustivePairsOverThreePages(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates ~340k write pairs")
	}
	c := ssdconf.Tiny()
	spp := c.SectorsPerPage() // 16
	window := int64(3 * spp)  // sectors [0, 48)
	base := int64(4 * spp)    // keep clear of sector 0 edge effects

	type ext struct {
		off   int64
		count int32
	}
	var exts []ext
	for off := int64(0); off < window; off++ {
		for count := 1; count <= spp && off+int64(count) <= window; count++ {
			exts = append(exts, ext{base + off, int32(count)})
		}
	}
	t.Logf("enumerating %d x %d write pairs", len(exts), len(exts))

	pairs := 0
	for _, e1 := range exts {
		// One scheme per first-write, replayed against every second write:
		// rebuilding the scheme for each pair would dominate runtime, so
		// instead reconstruct only when the first write changes and verify
		// the second writes independently on clones of the state by
		// re-running the first write each time.
		for _, e2 := range exts {
			s, err := New(&c)
			if err != nil {
				t.Fatal(err)
			}
			w1 := trace.Request{Op: trace.OpWrite, Offset: e1.off, Count: e1.count}
			w2 := trace.Request{Op: trace.OpWrite, Offset: e2.off, Count: e2.count, Time: 1}
			if _, err := s.Write(w1, 0); err != nil {
				t.Fatalf("pair (%v,%v): first write: %v", e1, e2, err)
			}
			if _, err := s.Write(w2, 1); err != nil {
				t.Fatalf("pair (%v,%v): second write: %v", e1, e2, err)
			}
			if err := s.Audit(); err != nil {
				t.Fatalf("pair (%v,%v): audit: %v", e1, e2, err)
			}
			// Read plans over the whole window must cover written sectors
			// exactly once and never source area-covered sectors from
			// normal pages.
			plan := s.planRead(trace.Request{Op: trace.OpRead, Offset: base, Count: int32(window)})
			covered := map[int64]int{}
			for _, src := range plan {
				for sec := src.Start; sec < src.End; sec++ {
					covered[sec]++
					if covered[sec] > 1 {
						t.Fatalf("pair (%v,%v): sector %d double-covered", e1, e2, sec)
					}
				}
			}
			for _, e := range []ext{e1, e2} {
				for sec := e.off; sec < e.off+int64(e.count); sec++ {
					if covered[sec] == 0 {
						t.Fatalf("pair (%v,%v): written sector %d not covered", e1, e2, sec)
					}
				}
			}
			pairs++
		}
	}
	t.Logf("verified %d pairs", pairs)
}
