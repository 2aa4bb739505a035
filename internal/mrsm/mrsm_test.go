package mrsm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"across/internal/flash"
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

func write(t *testing.T, s *Scheme, off int64, count int32, now float64) {
	t.Helper()
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: off, Count: count, Time: now}, now); err != nil {
		t.Fatalf("Write(off=%d,count=%d): %v", off, count, err)
	}
	if err := s.audit(); err != nil {
		t.Fatalf("audit after write(off=%d,count=%d): %v", off, count, err)
	}
}

func read(t *testing.T, s *Scheme, off int64, count int32, now float64) {
	t.Helper()
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: off, Count: count, Time: now}, now); err != nil {
		t.Fatalf("Read(off=%d,count=%d): %v", off, count, err)
	}
}

func TestTreeDepth(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want int
	}{{1, 1}, {2, 2}, {8, 2}, {65, 3}, {1 << 20, 7}} {
		if got := treeDepth(tc.n); got != tc.want {
			t.Errorf("treeDepth(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSubRange(t *testing.T) {
	s, _ := tinyScheme(t)
	// Tiny config: 8 KB pages, 16 sectors, 4 sub-pages of 4 sectors.
	cases := []struct {
		off         int64
		count       int32
		first, last int64
		fp, lp      bool
	}{
		{0, 4, 0, 0, false, false},  // exactly one sub-page
		{0, 16, 0, 3, false, false}, // one full page
		{2, 4, 0, 1, true, true},    // misaligned, spans two sub-pages
		{4, 6, 1, 2, false, true},   // starts aligned, ragged end
		{3, 1, 0, 0, true, true},    // single partial sub-page
	}
	for _, tc := range cases {
		f, l, fp, lp := s.subRange(trace.Request{Offset: tc.off, Count: tc.count})
		if f != tc.first || l != tc.last || fp != tc.fp || lp != tc.lp {
			t.Errorf("subRange(%d,%d) = (%d,%d,%v,%v), want (%d,%d,%v,%v)",
				tc.off, tc.count, f, l, fp, lp, tc.first, tc.last, tc.fp, tc.lp)
		}
	}
}

// TestPackingAvoidsRMW: an across-page write of one page's worth of data
// costs exactly one program under MRSM (packed), with no RMW reads — the
// behaviour that makes MRSM competitive on writes in Fig 9(b).
func TestPackingAvoidsRMW(t *testing.T) {
	s, _ := tinyScheme(t)
	// write(1028K, 8K): sectors [2056, 2072) = sub-pages 514..517 (4 full).
	write(t, s, 2056, 16, 0)
	if got := s.Dev.Count.DataWrites; got != 1 {
		t.Fatalf("programs = %d, want 1 (packed)", got)
	}
	if got := s.Dev.Count.DataReads; got != 0 {
		t.Fatalf("reads = %d, want 0 (sub-page aligned, no RMW)", got)
	}
}

func TestEachWriteRequestFlushesDurably(t *testing.T) {
	s, _ := tinyScheme(t)
	// A write request must be durable when it completes: even a 2 KB
	// (4-sector) sub-page write programs one (partially filled) packed
	// page. The unfilled slots are the space amplification that drives
	// MRSM's worst-of-three erase counts (Fig 11).
	write(t, s, 0, 4, 0)
	if got := s.Dev.Count.DataWrites; got != 1 {
		t.Fatalf("programs = %d, want 1 (durable on completion)", got)
	}
	if len(s.bufList) != 0 {
		t.Fatalf("buffer slots = %d, want 0 after request completes", len(s.bufList))
	}
	// A full-page write still costs exactly one program.
	write(t, s, 16, 16, 1)
	if got := s.Dev.Count.DataWrites; got != 2 {
		t.Fatalf("programs = %d, want 2", got)
	}
}

func TestPartialPackProgramsAreFasterThanFull(t *testing.T) {
	s, c := tinyScheme(t)
	// One sub-page (quarter page): region-granularity program, quarter the
	// program time on the critical path.
	done, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 0, Count: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMax := c.ProgramTime/4 + 10*c.CacheAccess
	if done > wantMax {
		t.Fatalf("quarter-page write completed at %v, want <= %v", done, wantMax)
	}
	done2, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 16, Count: 16}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if lat := done2 - 100; lat < c.ProgramTime {
		t.Fatalf("full-page write latency %v < full program time", lat)
	}
}

func TestPartialSubPageRMWReadsOldFlashCopy(t *testing.T) {
	s, _ := tinyScheme(t)
	// Fill one pack page so sub-pages 0..3 are on flash.
	write(t, s, 0, 16, 0)
	r0 := s.Dev.Count.DataReads
	// A 1-sector write into sub-page 0 partially covers it: must read the
	// old packed page.
	write(t, s, 1, 1, 1)
	if got := s.Dev.Count.DataReads - r0; got != 1 {
		t.Fatalf("RMW reads = %d, want 1", got)
	}
}

func TestOverwriteInvalidatesOldSlotsAndPages(t *testing.T) {
	s, _ := tinyScheme(t)
	write(t, s, 0, 16, 0) // page A holds sub-pages 0..3
	write(t, s, 0, 16, 1) // page B supersedes all of A
	_, _, invalid := s.Dev.Array.CountStates()
	if invalid != 1 {
		t.Fatalf("invalid pages = %d, want 1 (page A fully dead)", invalid)
	}
	live := 0
	for _, n := range s.pageLive {
		if n > 0 {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("live MRSM pages = %d, want 1", live)
	}
}

func TestReadGathersFragmentedSubPages(t *testing.T) {
	s, _ := tinyScheme(t)
	// Write the halves of logical page 0 in two requests: its sub-pages
	// land in two different packed pages.
	write(t, s, 0, 8, 0) // subs 0,1 -> packed page A
	write(t, s, 8, 8, 1) // subs 2,3 -> packed page B
	if got := s.Dev.Count.DataWrites; got != 2 {
		t.Fatalf("programs = %d, want 2", got)
	}
	r0 := s.Dev.Count.DataReads
	read(t, s, 0, 16, 4) // logical page 0 is split across both pack pages
	if got := s.Dev.Count.DataReads - r0; got != 2 {
		t.Fatalf("fragmented read cost %d flash reads, want 2", got)
	}
}

func TestReadOfUnwrittenDataIsFree(t *testing.T) {
	s, _ := tinyScheme(t)
	read(t, s, 100, 8, 0) // never written
	if s.Dev.Count.DataReads != 0 {
		t.Fatal("unwritten read touched flash")
	}
}

func TestTableBytesAndResidentFraction(t *testing.T) {
	s, c := tinyScheme(t)
	want := c.LogicalPages() * int64(c.SubPagesPerPg) * int64(c.MRSMEntryBytes)
	if got := s.TableBytes(); got != want {
		t.Fatalf("TableBytes = %d, want %d", got, want)
	}
	// Default sizing: MRSM's table is 2.5x the baseline's (4 sub-entries of
	// 5 B vs one 8 B entry), so a DRAM budget equal to the baseline table
	// holds 40% of it — the paper's 42.1% regime. The byte-level ratio is
	// exact; the resident page count is integer (and clamped upward on a
	// tiny device), so assert on bytes.
	if ratio := float64(c.DRAMBudget()) / float64(s.TableBytes()); ratio != 0.4 {
		t.Fatalf("budget/table = %v, want 0.4", ratio)
	}
	if got := s.ResidentFraction(); got <= 0 {
		t.Fatalf("ResidentFraction = %v, want positive", got)
	}
}

func TestTreeLookupsCostMoreDRAM(t *testing.T) {
	s, _ := tinyScheme(t)
	write(t, s, 0, 16, 0)
	// Updates walk down and rebalance back up: 2 x depth per sub-page.
	perSub := int64(2 * s.depth)
	if got := s.Dev.Count.DRAMAccesses; got != 4*perSub {
		t.Fatalf("DRAM accesses = %d, want %d (4 sub-pages x 2 x depth %d)", got, 4*perSub, s.depth)
	}
	d0 := s.Dev.Count.DRAMAccesses
	read(t, s, 0, 16, 1)
	if got := s.Dev.Count.DRAMAccesses - d0; got != 4*int64(s.depth) {
		t.Fatalf("read DRAM accesses = %d, want %d (lookups cost depth)", got, 4*int64(s.depth))
	}
}

func TestGCMigratesPackedPages(t *testing.T) {
	s, c := tinyScheme(t)
	// Long-lived data in low LPNs, churn high LPNs until GC kicks in.
	write(t, s, 0, 16, 0)
	base := c.LogicalSectors() / 2
	for i := 0; i < 6000; i++ {
		off := base + int64(i%20)*16
		write(t, s, off, 16, float64(i+1))
	}
	if s.Dev.Array.TotalErases() == 0 {
		t.Skip("no GC in this geometry")
	}
	// Original data still resolvable and readable.
	r0 := s.Dev.Count.DataReads
	read(t, s, 0, 16, 1e7)
	if got := s.Dev.Count.DataReads - r0; got != 1 {
		t.Fatalf("reads = %d, want 1 (page survived GC)", got)
	}
}

func TestMapTrafficAppearsUnderCachePressure(t *testing.T) {
	c := ssdconf.Tiny()
	// Shrink the DRAM budget to one resident translation page and inflate
	// the entry size so the tiny device still has dozens of translation
	// pages: map traffic is then unavoidable under a scattered workload.
	c.DRAMBudgetBytes = int64(c.PageBytes)
	c.MRSMEntryBytes = 512
	s, err := New(&c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	region := c.LogicalSectors() / 2
	for i := 0; i < 400; i++ {
		off := rng.Int63n(region - 16)
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: off, Count: 16}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Dev.Count.MapWrites == 0 {
		t.Fatal("no map writes despite tiny cache")
	}
	if s.Dev.Count.MapReads == 0 {
		t.Fatal("no map reads despite tiny cache")
	}
	st := s.CMTStats()
	if st.Misses == 0 || st.DirtyEvicts == 0 {
		t.Fatalf("CMT stats = %+v, want misses and dirty evictions", st)
	}
}

func TestRandomWorkloadConsistency(t *testing.T) {
	s, c := tinyScheme(t)
	rng := rand.New(rand.NewSource(9))
	region := c.LogicalSectors() / 2
	for op := 0; op < 4000; op++ {
		off := rng.Int63n(region - 40)
		count := rng.Int31n(36) + 1
		now := float64(op)
		if rng.Intn(100) < 60 {
			write(t, s, off, count, now)
		} else {
			read(t, s, off, count, now)
		}
	}
	if s.Dev.Array.TotalErases() == 0 {
		t.Fatal("churn never triggered GC")
	}
}

func TestRejectsInvalidRequests(t *testing.T) {
	s, c := tinyScheme(t)
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: c.LogicalSectors(), Count: 4}, 0); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 0, Count: -1}, 0); err == nil {
		t.Fatal("negative-count read accepted")
	}
}

// audit verifies subLoc/pages bidirectional consistency and that every live
// packed page is valid in the flash array.
func (s *Scheme) audit() error {
	for i, want := range s.pageLive {
		if want == 0 {
			continue
		}
		ppn := flash.PPN(i)
		if s.Dev.Array.State(ppn) != flash.PageValid {
			return errAudit("page %d is %v with %d live slots", int64(i), s.Dev.Array.State(ppn), want)
		}
		base := int32(i) * int32(s.subPerPg)
		live := 0
		for slot := int32(0); slot < int32(s.subPerPg); slot++ {
			sub := s.pageOwner[base+slot]
			if sub == unmapped {
				continue
			}
			live++
			if s.subLoc[sub] != base+slot {
				return errAudit("sub %d maps to %d, slot table says %d", sub, s.subLoc[sub], base+slot)
			}
		}
		if live != int(want) {
			return errAudit("page %d live=%d, recount=%d", int64(i), want, live)
		}
	}
	for sub, loc := range s.subLoc {
		if loc == unmapped {
			continue
		}
		ppn := flash.PPN(loc / int32(s.subPerPg))
		slot := int(loc % int32(s.subPerPg))
		if s.pageLive[ppn] == 0 || s.pageOwner[loc] != int32(sub) {
			return errAudit("sub %d points at page %d slot %d which does not own it", sub, int64(ppn), slot)
		}
	}
	return nil
}

func errAudit(format string, args ...any) error {
	return fmt.Errorf("mrsm audit: "+format, args...)
}

// MRSM's tables index physical sub-page slots with 32 bits and count a
// page's live slots in 8: a geometry past either limit is refused from the
// Config alone, before the device is built.
func TestNewRefusesGeometryPast32Bits(t *testing.T) {
	slots := ssdconf.Table1() // 2^29 pages × 4 sub-pages: the array fits, the slot table does not
	slots.BlocksPerPlane = (1 << 31) / (slots.PlanesTotal() * slots.PagesPerBlock * slots.SubPagesPerPg)
	wide := ssdconf.Tiny() // 512 sub-pages in a 256 KB page
	wide.PageBytes = 512 * ssdconf.SectorBytes
	wide.SubPagesPerPg = 512
	for name, c := range map[string]ssdconf.Config{"2^31 slots": slots, "512 sub-pages per page": wide} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: test geometry invalid: %v", name, err)
		}
		if _, err := New(&c); !errors.Is(err, flash.ErrGeometryTooLarge) {
			t.Errorf("%s: New err = %v, want flash.ErrGeometryTooLarge", name, err)
		}
	}
}

// No request boundary leaves sub-pages in the pack buffer, so a checkpoint
// never holds any; CopyState carries the buffer all the same, as the
// snapshot format does, and into memory of the copy's own.
func TestCopyStateCarriesThePackBuffer(t *testing.T) {
	src, _ := tinyScheme(t)
	write(t, src, 0, 4, 0)
	src.bufList = append(src.bufList, 7, 9)
	dst, _ := tinyScheme(t)
	dst.CopyState(src)
	if len(dst.bufList) != 2 || dst.bufList[0] != 7 || dst.bufList[1] != 9 {
		t.Fatalf("copied pack buffer = %v, want [7 9]", dst.bufList)
	}
	if dst.bufList[0] = 1; src.bufList[0] != 7 {
		t.Error("the copy's pack buffer aliases the source's")
	}
	if dst.Dev.Count != src.Dev.Count || dst.subLoc[0] != src.subLoc[0] {
		t.Error("the copy differs from the source in the state the write left")
	}
}

// TestDirtyNodeFlushesOnItsBudget: a resident tree node is checkpointed to
// flash once it holds maxNodeDirty un-persisted updates — on the twelfth
// update of one node, exactly once, and not again until twelve more.
func TestDirtyNodeFlushesOnItsBudget(t *testing.T) {
	s, c := tinyScheme(t)
	perSub := int32(c.SectorsPerPage() / c.SubPagesPerPg)
	for i := 1; i <= 2*maxNodeDirty; i++ {
		write(t, s, 0, perSub, float64(i)) // sub-page 0: one update of node 0
		if got, want := s.Dev.Count.MapWrites, int64(i/maxNodeDirty); got != want {
			t.Fatalf("after %d updates of one node: %d map writes, want %d", i, got, want)
		}
	}
}
