package acrossftl

import (
	"math/rand"
	"testing"

	"across/internal/ssdconf"
	"across/internal/trace"
)

func tinyScheme(t *testing.T) (*Scheme, *ssdconf.Config) {
	t.Helper()
	c := ssdconf.Tiny()
	s, err := New(&c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, &c
}

func mustWrite(t *testing.T, s *Scheme, off int64, count int32, now float64) {
	t.Helper()
	r := trace.Request{Time: now, Op: trace.OpWrite, Offset: off, Count: count}
	if _, err := s.Write(r, now); err != nil {
		t.Fatalf("Write(%v): %v", r, err)
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("after Write(%v): %v", r, err)
	}
}

func mustRead(t *testing.T, s *Scheme, off int64, count int32, now float64) {
	t.Helper()
	r := trace.Request{Time: now, Op: trace.OpRead, Offset: off, Count: count}
	if _, err := s.Read(r, now); err != nil {
		t.Fatalf("Read(%v): %v", r, err)
	}
}

// TestPaperFigure5DirectWrite: write(1028K, 6K) is remapped onto a single
// SSD page — one flash program instead of the conventional two.
func TestPaperFigure5DirectWrite(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0) // write(1028K, 6K): sectors [2056, 2068)
	if got := s.Dev.Count.DataWrites; got != 1 {
		t.Fatalf("flash programs = %d, want 1 (the re-aligned area)", got)
	}
	if got := s.Dev.Count.DataReads; got != 0 {
		t.Fatalf("flash reads = %d, want 0", got)
	}
	st := s.Stats()
	if st.DirectWrites != 1 || st.AcrossWrites != 1 {
		t.Fatalf("stats = %+v, want one direct across write", st)
	}
	// Two-level table state mirrors Fig 5: AIdx on LPN 128, entry Off=8 Size=12.
	a, ok := s.areaAt(128)
	if !ok {
		t.Fatal("no area keyed at LPN 128")
	}
	if a.e.Off != 8 || a.e.Size != 12 {
		t.Fatalf("AMT entry = %+v, want Off=8 Size=12", a.e)
	}
}

// TestPaperFigure7DirectRead: read(1030K, 4K) inside the area costs one read.
func TestPaperFigure7DirectRead(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0)
	mustRead(t, s, 2060, 8, 1) // read(1030K, 4K): [2060, 2068) within area
	if got := s.Dev.Count.DataReads; got != 1 {
		t.Fatalf("flash reads = %d, want 1 (direct read)", got)
	}
	st := s.Stats()
	if st.DirectReads != 1 || st.MergedReads != 0 {
		t.Fatalf("stats = %+v, want one direct read", st)
	}
}

// TestPaperFigure7MergedRead: read(1030K, 8K) exceeds the area, so the area
// page and the normal page are both read — two reads, same as conventional.
func TestPaperFigure7MergedRead(t *testing.T) {
	s, _ := tinyScheme(t)
	// Normal data for page 129 exists (PPN=100 in the figure).
	mustWrite(t, s, 129*16, 16, 0)
	mustWrite(t, s, 2056, 12, 1) // the across area (1028K, 6K)
	before := s.Dev.Count.DataReads
	mustRead(t, s, 2060, 16, 2) // read(1030K, 8K): [2060, 2076)
	if got := s.Dev.Count.DataReads - before; got != 2 {
		t.Fatalf("flash reads = %d, want 2 (area + normal page)", got)
	}
	st := s.Stats()
	if st.MergedReads != 1 {
		t.Fatalf("stats = %+v, want one merged read", st)
	}
	if st.MergedReadFlashReads != 2 {
		t.Fatalf("merged-read flash reads = %d, want 2", st.MergedReadFlashReads)
	}
}

// TestPaperFigure6AMerge: updating (1030K, 6K) over the (1028K, 6K) area
// merges to a 16-sector area: one read of the old area page, one program.
func TestPaperFigure6AMerge(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0) // area [2056, 2068), Off=8 Size=12
	r0, w0 := s.Dev.Count.DataReads, s.Dev.Count.DataWrites
	mustWrite(t, s, 2060, 12, 1) // write(1030K, 6K): [2060, 2072)
	if got := s.Dev.Count.DataReads - r0; got != 1 {
		t.Fatalf("merge reads = %d, want 1 (old area page)", got)
	}
	if got := s.Dev.Count.DataWrites - w0; got != 1 {
		t.Fatalf("merge programs = %d, want 1", got)
	}
	a, ok := s.areaAt(128)
	if !ok {
		t.Fatal("area lost after merge")
	}
	if a.e.Off != 8 || a.e.Size != 16 {
		t.Fatalf("merged entry = %+v, want Off=8 Size=16 (12 -> 16 sectors)", a.e)
	}
	st := s.Stats()
	if st.ProfitableAMerge != 1 || st.UnprofitableAMerge != 0 {
		t.Fatalf("stats = %+v, want one profitable AMerge", st)
	}
	// The superseded area page is now invalid.
	_, _, invalid := s.Dev.Array.CountStates()
	if invalid != 1 {
		t.Fatalf("invalid pages = %d, want 1", invalid)
	}
}

// TestPaperFigure6Rollback: write(1030K, 8K) grows the union past one page,
// so the area rolls back into normally mapped pages.
func TestPaperFigure6Rollback(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0) // area [2056, 2068)
	r0, w0 := s.Dev.Count.DataReads, s.Dev.Count.DataWrites
	mustWrite(t, s, 2060, 16, 1) // write(1030K, 8K): union [2056, 2076) = 20 sectors
	if _, ok := s.areaAt(128); ok {
		t.Fatal("area survived rollback")
	}
	if s.AMT.Live() != 0 {
		t.Fatalf("AMT live = %d, want 0", s.AMT.Live())
	}
	st := s.Stats()
	if st.Rollbacks != 1 {
		t.Fatalf("stats = %+v, want one rollback", st)
	}
	// Cost: read old area page (pages 128/129 were never normally written,
	// so no RMW reads), program both pages normally.
	if got := s.Dev.Count.DataReads - r0; got != 1 {
		t.Fatalf("rollback reads = %d, want 1", got)
	}
	if got := s.Dev.Count.DataWrites - w0; got != 2 {
		t.Fatalf("rollback programs = %d, want 2", got)
	}
	// Both pages are now normally mapped.
	if s.PMT.PPNOf(128) < 0 || s.PMT.PPNOf(129) < 0 {
		t.Fatal("rollback did not install normal mappings")
	}
}

// TestUnprofitableAMerge: a small single-page write overlapping the area
// merges too, but is counted as unprofitable (a conventional FTL would also
// have used one program).
func TestUnprofitableAMerge(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0) // area [2056, 2068)
	mustWrite(t, s, 2058, 4, 1)  // 2 KB write inside page 128, overlapping area
	st := s.Stats()
	if st.UnprofitableAMerge != 1 || st.ProfitableAMerge != 0 {
		t.Fatalf("stats = %+v, want one unprofitable AMerge", st)
	}
	a, ok := s.areaAt(128)
	if !ok {
		t.Fatal("area lost")
	}
	if a.e.Off != 8 || a.e.Size != 12 {
		t.Fatalf("entry = %+v; union of [2056,2068) and [2058,2062) is unchanged", a.e)
	}
}

// TestSupersede: an aligned write covering both pages replaces the area
// outright — no rescue reads, area dropped.
func TestSupersede(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0)
	r0 := s.Dev.Count.DataReads
	mustWrite(t, s, 2048, 32, 1) // aligned write of pages 128+129
	if _, ok := s.areaAt(128); ok {
		t.Fatal("area survived a fully covering write")
	}
	if got := s.Dev.Count.DataReads - r0; got != 0 {
		t.Fatalf("supersede caused %d reads, want 0", got)
	}
	st := s.Stats()
	if st.Superseded != 1 {
		t.Fatalf("stats = %+v, want one superseded area", st)
	}
}

// TestCoveringAcrossWriteDoesNotSupersede: an across-page write that covers
// every area it conflicts with is still an update of an across-page area, so
// it takes AMerge, or ARollback with AMerge off — never the supersede path
// that only a non-across write takes.
func TestCoveringAcrossWriteDoesNotSupersede(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     Options
		want     Stats
		wantArea bool
	}{
		{"AMerge", Options{}, Stats{AcrossWrites: 1, ProfitableAMerge: 1}, true},
		{"AMerge off", Options{DisableAMerge: true}, Stats{AcrossWrites: 1, Rollbacks: 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := ssdconf.Tiny()
			s, err := NewWithOptions(&c, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			mustWrite(t, s, 2056, 12, 0) // area [2056, 2068)
			s.ResetStats()
			mustWrite(t, s, 2054, 16, 1) // [2054, 2070) covers it, across pages 128/129
			if st := s.Stats(); st != tc.want {
				t.Fatalf("stats = %+v, want %+v", st, tc.want)
			}
			if _, ok := s.areaAt(128); ok != tc.wantArea {
				t.Fatalf("area at LPN 128 present = %v, want %v", ok, tc.wantArea)
			}
		})
	}
}

// TestAcrossWriteSavesOneProgramVersusBaseline is the headline claim: for
// the same across-page write, Across-FTL programs one page, baseline two.
func TestAcrossWriteSavesOneProgramVersusBaseline(t *testing.T) {
	s, _ := tinyScheme(t)
	for i := 0; i < 5; i++ {
		mustWrite(t, s, int64(200*i)+8, 12, float64(i))
	}
	if got := s.Dev.Count.DataWrites; got != 5 {
		t.Fatalf("Across-FTL programs = %d, want 5 (baseline would use 10)", got)
	}
}

func TestKeyCollisionDisjointAcrossWrites(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2058, 12, 0) // area A: [2058, 2070)
	// A second, disjoint across write on the same page pair (key 128):
	// [2052, 2056) ∪ ... must reconcile with A because PMT has one AIdx.
	mustWrite(t, s, 2062, 12, 1) // overlaps A: AMerge
	a, ok := s.areaAt(128)
	if !ok {
		t.Fatal("no area after same-key writes")
	}
	if a.e.Off != 10 || a.e.End() != 26 {
		t.Fatalf("entry = %+v, want union [2058, 2074) -> Off=10 End=26", a.e)
	}
}

func TestAdjacentAreasCanCoexist(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0) // area keyed 128: [2056, 2068)
	mustWrite(t, s, 2072, 12, 1) // area keyed 129: [2072, 2084), disjoint
	if s.AMT.Live() != 2 {
		t.Fatalf("live areas = %d, want 2", s.AMT.Live())
	}
	// Overlapping the second area only merges the second.
	mustWrite(t, s, 2074, 12, 2)
	if s.AMT.Live() != 2 {
		t.Fatalf("live areas after merge = %d, want 2", s.AMT.Live())
	}
	if _, ok := s.areaAt(128); !ok {
		t.Fatal("area 128 disturbed by neighbour merge")
	}
}

func TestOverlappingNeighbourAreasReconcile(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0) // area keyed 128: [2056, 2068)
	// Across write on pages 129/130 overlapping area 128's tail is
	// impossible (area ends at 2068, page 129 ends at 2080); instead make
	// an across write [2076, 2088) keyed 129, then overlap both with one
	// large write and confirm a clean rollback of everything.
	mustWrite(t, s, 2076, 12, 1)
	if s.AMT.Live() != 2 {
		t.Fatalf("live areas = %d, want 2", s.AMT.Live())
	}
	mustWrite(t, s, 2056, 32, 2) // covers area 128 fully, overlaps area 129
	if s.AMT.Live() != 0 {
		t.Fatalf("live areas = %d, want 0 after covering write", s.AMT.Live())
	}
}

func TestReadPlanCoversExactlyWrittenSectors(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 129*16, 16, 0)                                               // normal page 129 first
	mustWrite(t, s, 2056, 12, 1)                                                 // then the area
	plan := s.planRead(trace.Request{Op: trace.OpRead, Offset: 2050, Count: 24}) // [2050, 2074)
	// Expected coverage: [2050,2056) unwritten -> absent; [2056,2068) area;
	// [2068,2074) normal page 129.
	var areaSpan, normalSpan *Source
	for i := range plan {
		if plan[i].FromArea {
			areaSpan = &plan[i]
		} else {
			normalSpan = &plan[i]
		}
	}
	if areaSpan == nil || areaSpan.Start != 2056 || areaSpan.End != 2068 {
		t.Fatalf("area source = %+v, want [2056,2068)", areaSpan)
	}
	if normalSpan == nil || normalSpan.Start != 2068 || normalSpan.End != 2074 || normalSpan.LPN != 129 {
		t.Fatalf("normal source = %+v, want [2068,2074) from LPN 129", normalSpan)
	}
}

// TestRandomWorkloadIntegrity hammers a small logical region with random
// reads and writes of every class and checks, after every operation, the
// full two-level-mapping audit plus read-plan sanity: plans must cover
// exactly requested∩written sectors, without overlap, and source any sector
// covered by a live area from that area's page.
func TestRandomWorkloadIntegrity(t *testing.T) {
	s, c := tinyScheme(t)
	rng := rand.New(rand.NewSource(42))
	written := map[int64]bool{}
	region := c.LogicalSectors() / 2
	for op := 0; op < 3000; op++ {
		off := rng.Int63n(region - 40)
		count := rng.Int31n(36) + 1
		now := float64(op)
		if rng.Intn(100) < 55 {
			r := trace.Request{Op: trace.OpWrite, Offset: off, Count: count, Time: now}
			if _, err := s.Write(r, now); err != nil {
				t.Fatalf("op %d Write(%v): %v", op, r, err)
			}
			// A full-page program persists the whole page; partial writes
			// of mapped pages RMW the full page too. Sectors become
			// "written" (i.e. readable from flash) page-wise for normal
			// writes, but only the written range for pure area writes. For
			// the oracle we track the conservative truth: the exact range.
			for sec := off; sec < off+int64(count); sec++ {
				written[sec] = true
			}
			if err := s.Audit(); err != nil {
				t.Fatalf("op %d audit: %v", op, err)
			}
		} else {
			r := trace.Request{Op: trace.OpRead, Offset: off, Count: count, Time: now}
			plan := s.planRead(r)
			covered := map[int64]int{}
			for _, src := range plan {
				if src.Start >= src.End {
					t.Fatalf("op %d: empty source %+v", op, src)
				}
				if src.Start < off || src.End > off+int64(count) {
					t.Fatalf("op %d: source %+v outside request [%d,%d)", op, src, off, off+int64(count))
				}
				for sec := src.Start; sec < src.End; sec++ {
					covered[sec]++
				}
			}
			for sec, n := range covered {
				if n > 1 {
					t.Fatalf("op %d: sector %d covered %d times", op, sec, n)
				}
			}
			// Every explicitly written sector in range must be covered.
			for sec := off; sec < off+int64(count); sec++ {
				if written[sec] && covered[sec] == 0 {
					t.Fatalf("op %d: written sector %d not covered by plan", op, sec)
				}
			}
			// Sectors covered by a live area must be sourced from it.
			for _, src := range plan {
				for sec := src.Start; sec < src.End; sec++ {
					lpn := sec / int64(s.SPP)
					fromArea := false
					for _, key := range []int64{lpn - 1, lpn} {
						if a, ok := s.areaAt(key); ok {
							sp := s.spanOf(a.e)
							if sec >= sp.Start && sec < sp.End {
								fromArea = true
							}
						}
					}
					if fromArea != src.FromArea {
						t.Fatalf("op %d: sector %d fromArea=%v but source %+v", op, sec, fromArea, src)
					}
				}
			}
			if _, err := s.Read(r, now); err != nil {
				t.Fatalf("op %d Read: %v", op, err)
			}
		}
	}
	if s.Stats().AreasTouched() == 0 {
		t.Fatal("random workload never exercised the across-page path")
	}
	if s.Dev.Array.TotalErases() == 0 {
		t.Fatal("random workload never triggered GC")
	}
}

func TestGCMigratesAreasCoherently(t *testing.T) {
	s, c := tinyScheme(t)
	// Create a handful of long-lived areas, then churn elsewhere until GC
	// must have migrated them at least once; the audit catches any broken
	// AMT->flash link.
	for i := int64(0); i < 4; i++ {
		mustWrite(t, s, i*32+8, 12, float64(i))
	}
	base := c.LogicalSectors() / 2
	for i := 0; i < 4000; i++ {
		off := base + int64(i%24)*16
		mustWrite(t, s, off, 16, float64(i+10))
	}
	if s.Dev.Array.TotalErases() == 0 {
		t.Skip("no GC in this geometry")
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("audit after GC churn: %v", err)
	}
	if s.AMT.Live() != 4 {
		t.Fatalf("areas lost: live = %d, want 4", s.AMT.Live())
	}
	// Each area still serves a direct read.
	st0 := s.Stats().DirectReads
	for i := int64(0); i < 4; i++ {
		mustRead(t, s, i*32+8, 12, 1e6)
	}
	if got := s.Stats().DirectReads - st0; got != 4 {
		t.Fatalf("direct reads after GC = %d, want 4", got)
	}
}

func TestTableBytesGrowsWithAreas(t *testing.T) {
	s, c := tinyScheme(t)
	base := s.TableBytes()
	wantBase := c.LogicalPages() * int64(c.MapEntryBytes+c.AIdxBytes)
	if base != wantBase {
		t.Fatalf("TableBytes = %d, want %d before any area", base, wantBase)
	}
	mustWrite(t, s, 2056, 12, 0)
	if got := s.TableBytes(); got != base+int64(c.AMTEntryBytes) {
		t.Fatalf("TableBytes = %d, want %d after one area", got, base+int64(c.AMTEntryBytes))
	}
}

func TestStatsDerivedMetrics(t *testing.T) {
	st := Stats{DirectWrites: 70, ProfitableAMerge: 20, UnprofitableAMerge: 10, Rollbacks: 10}
	if got := st.AreasTouched(); got != 100 {
		t.Fatalf("AreasTouched = %d, want 100", got)
	}
	if got := st.RollbackRatio(); got < 0.0909 || got > 0.0910 {
		t.Fatalf("RollbackRatio = %v, want 10/110", got)
	}
	d, p, u := st.ComponentShares()
	if d != 0.7 || p != 0.2 || u != 0.1 {
		t.Fatalf("shares = %v/%v/%v", d, p, u)
	}
	var zero Stats
	if zero.RollbackRatio() != 0 {
		t.Fatal("zero stats RollbackRatio != 0")
	}
	d, p, u = zero.ComponentShares()
	if d != 0 || p != 0 || u != 0 {
		t.Fatal("zero stats shares != 0")
	}
}

func TestWriteRejectsInvalidRequests(t *testing.T) {
	s, c := tinyScheme(t)
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: c.LogicalSectors(), Count: 4}, 0); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: -1, Count: 4}, 0); err == nil {
		t.Fatal("negative-offset read accepted")
	}
}

func TestResetStatsClearsAcrossCensus(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0)
	s.ResetStats()
	if s.Stats().DirectWrites != 0 || s.CMTStats().Lookups != 0 {
		t.Fatal("ResetStats left residue")
	}
	// State (not stats) must survive.
	if _, ok := s.areaAt(128); !ok {
		t.Fatal("ResetStats destroyed area state")
	}
}
