package cache_test

// The cached mapping table (CMT) is this package's LRU and CMTStats run by
// ftl.PagedTable, which groups entries into translation pages and pays for
// misses and dirty evictions in flash. These tests pin that behaviour
// through the table's exported surface; ftl's own tests cover its on-flash
// locations.

import (
	"math/rand"
	"testing"

	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/obs"
	"across/internal/snapshot"
	"across/internal/ssdconf"
)

// tinyTable builds a paged table of entries mapping entries, perPage to a
// translation page and resident pages in DRAM, alone on a Tiny device whose
// GC repoints it.
func tinyTable(t *testing.T, perPage, resident int, entries int64) (*ftl.PagedTable, *ftl.Device) {
	t.Helper()
	c := ssdconf.Tiny()
	dev, err := ftl.NewDevice(&c)
	if err != nil {
		t.Fatal(err)
	}
	al := ftl.NewAllocator(dev, nil)
	pt := ftl.NewPagedTable(dev, al, obs.CachePMT, perPage, resident, entries)
	al.SetMigrate(func(tag flash.Tag, old, new flash.PPN) { pt.OnMigrate(tag.Key, old, new) })
	return pt, dev
}

func mustTouch(t *testing.T, pt *ftl.PagedTable, entry int64, dirty bool, now float64) (ready float64, flushed int64) {
	t.Helper()
	ready, flushed, err := pt.Touch(entry, dirty, now)
	if err != nil {
		t.Fatalf("Touch(%d): %v", entry, err)
	}
	return ready, flushed
}

func TestCMTGroupsEntriesIntoPages(t *testing.T) {
	pt, _ := tinyTable(t, 4, 2, 64)
	// Entries 0..3 share a translation page: one miss then hits.
	mustTouch(t, pt, 0, false, 0)
	for i := int64(1); i < 4; i++ {
		mustTouch(t, pt, i, false, 0)
	}
	if s := pt.Stats(); s.Lookups != 4 || s.Misses != 1 || s.Hits != 3 {
		t.Fatalf("stats = %+v, want 4 lookups, 1 miss, 3 hits", s)
	}
	mustTouch(t, pt, 4, false, 0) // entry 4 opens page 1
	if s := pt.Stats(); s.Misses != 2 {
		t.Fatalf("stats = %+v, want a second miss for page 1", s)
	}
}

// A miss that evicts a dirty page writes it back before loading, and does
// not wait for the write; a clean victim costs nothing.
func TestCMTDirtyEvictionRequiresFlush(t *testing.T) {
	pt, dev := tinyTable(t, 1, 1, 64) // one entry per page, one resident page
	mustTouch(t, pt, 0, true, 0)      // page 0 resident and dirty
	ready, flushed := mustTouch(t, pt, 1, false, 5)
	if flushed != 0 || ready != 5 || dev.Count.MapWrites != 1 {
		t.Fatalf("dirty eviction: flushed %d, ready %g, %d map writes; want page 0 written back, entry 1 ready at 5 (never materialised), 1 write",
			flushed, ready, dev.Count.MapWrites)
	}
	// Clean eviction: page 1 was never dirtied.
	if _, flushed := mustTouch(t, pt, 2, false, 6); flushed != -1 || dev.Count.MapWrites != 1 {
		t.Fatalf("clean eviction: flushed %d, %d map writes; want no write-back", flushed, dev.Count.MapWrites)
	}
	// Page 0 now has a flash copy, so loading it costs a read.
	if ready, _ := mustTouch(t, pt, 0, false, 7); ready <= 7 || dev.Count.MapReads != 1 {
		t.Fatalf("reload of page 0 ready at %g with %d map reads, want a flash read", ready, dev.Count.MapReads)
	}
	if s := pt.Stats(); s.DirtyEvicts != 1 || s.CleanEvicts != 2 {
		t.Fatalf("stats = %+v, want one dirty and two clean evictions", s)
	}
}

func TestCMTHitRatioAndReset(t *testing.T) {
	pt, _ := tinyTable(t, 2, 4, 64)
	if got := pt.Stats().HitRatio(); got != 1 {
		t.Fatalf("empty HitRatio = %v, want 1", got)
	}
	mustTouch(t, pt, 0, false, 0)
	mustTouch(t, pt, 1, false, 0)
	if got := pt.Stats().HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", got)
	}
	pt.ResetStats()
	if pt.Stats().Lookups != 0 {
		t.Fatal("ResetStats did not clear lookups")
	}
	// Contents survive a stats reset.
	mustTouch(t, pt, 0, false, 0)
	if pt.Stats().Hits != 1 {
		t.Fatal("page 0 should still be resident after ResetStats")
	}
}

// A table asked for no entries per page, no resident pages and no entries
// gets one of each: one entry per page, one page in DRAM, at least one page.
func TestCMTClampsDegenerateParameters(t *testing.T) {
	pt, _ := tinyTable(t, 0, 0, 2)
	if pt.ResidentPages() != 1 {
		t.Fatalf("resident pages = %d, want 1", pt.ResidentPages())
	}
	// One entry per page: entries 0 and 1 each miss, and the second evicts
	// the first from the single resident page.
	mustTouch(t, pt, 0, false, 0)
	mustTouch(t, pt, 1, false, 0)
	if s := pt.Stats(); s.Misses != 2 || s.CleanEvicts != 1 {
		t.Fatalf("stats = %+v, want 2 misses and 1 clean eviction", s)
	}
	// Two entries at one per page make two translation pages.
	if err := pt.WriteBack(1, 0); err != nil {
		t.Fatalf("WriteBack(1) of a two-page table: %v", err)
	}
	if err := pt.WriteBack(2, 0); err == nil {
		t.Fatal("WriteBack(2) accepted a page past a two-page table")
	}
	// An empty table still has one page.
	empty, _ := tinyTable(t, 0, 0, 0)
	if err := empty.WriteBack(0, 0); err != nil {
		t.Fatalf("WriteBack(0) of an empty table: %v", err)
	}
	if err := empty.WriteBack(1, 0); err == nil {
		t.Fatal("WriteBack(1) accepted a page past an empty table's one page")
	}
}

// tableBytes encodes a table's residency, dirty bits, statistics and
// on-flash locations.
func tableBytes(t *testing.T, pt *ftl.PagedTable) []byte {
	t.Helper()
	enc := snapshot.NewEncoder()
	if err := pt.SnapshotState(enc); err != nil {
		t.Fatal(err)
	}
	blob, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRehitIsTouchOfTheMRUPage: after any touch or write-back, Rehit of an
// entry in the page just touched leaves the stats, the recency order and
// every dirty bit where Touch of that entry leaves them.
func TestRehitIsTouchOfTheMRUPage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, devA := tinyTable(t, 8, 3, 64)
	b, _ := tinyTable(t, 8, 3, 64)
	for i := 0; i < 5000; i++ {
		now := float64(i)
		e, dirty := rng.Int63n(64), rng.Intn(2) == 0
		mustTouch(t, a, e, dirty, now)
		mustTouch(t, b, e, dirty, now)
		if rng.Intn(4) == 0 {
			for _, pt := range []*ftl.PagedTable{a, b} {
				if err := pt.WriteBack(e/8, now); err != nil {
					t.Fatal(err)
				}
			}
		}
		dirty = rng.Intn(2) == 0
		mustTouch(t, a, e/8*8+rng.Int63n(8), dirty, now)
		b.Rehit(dirty, now)
		if a.Stats() != b.Stats() {
			t.Fatalf("step %d: stats %+v after Rehit, %+v after Touch", i, b.Stats(), a.Stats())
		}
		if string(tableBytes(t, a)) != string(tableBytes(t, b)) {
			t.Fatalf("step %d: residency, a dirty bit or a location differs after Rehit", i)
		}
	}
	if devA.Count.Erases == 0 {
		t.Fatal("no translation page was collected; the test exercised no migration")
	}
}
