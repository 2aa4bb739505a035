package ftl

import (
	"testing"

	"across/internal/flash"
	"across/internal/obs"
	"across/internal/snapshot"
	"across/internal/ssdconf"
)

// tinyTable builds a paged table of entries mapping entries, perPage to a
// translation page and resident pages in DRAM, alone on a Tiny device whose
// GC repoints it.
func tinyTable(t *testing.T, perPage, resident int, entries int64) *PagedTable {
	t.Helper()
	c := ssdconf.Tiny()
	dev, err := NewDevice(&c)
	if err != nil {
		t.Fatal(err)
	}
	al := NewAllocator(dev, nil)
	pt := NewPagedTable(dev, al, obs.CachePMT, perPage, resident, entries)
	al.SetMigrate(func(tag flash.Tag, old, new flash.PPN) { pt.OnMigrate(tag.Key, old, new) })
	return pt
}

func mustTouch(t *testing.T, pt *PagedTable, entry int64, dirty bool, now float64) (ready float64, flushed int64) {
	t.Helper()
	ready, flushed, err := pt.Touch(entry, dirty, now)
	if err != nil {
		t.Fatalf("Touch(%d): %v", entry, err)
	}
	return ready, flushed
}

// The TestMapStore tests cover the table's on-flash half, its "mapstore"
// snapshot section; internal/cache's TestCMT tests cover its cached half.

func TestMapStoreLazyMaterialisation(t *testing.T) {
	pt := tinyTable(t, 1, 1, 8)
	dev := pt.dev
	// Cold load: free.
	if ready, _ := mustTouch(t, pt, 7, true, 3); ready != 3 || dev.Count.MapReads != 0 {
		t.Fatalf("cold load ready at %g with %d map reads, want 3 and none", ready, dev.Count.MapReads)
	}
	// A write-back materialises; a later load costs a read.
	if err := pt.WriteBack(7, 3); err != nil {
		t.Fatal(err)
	}
	if dev.Count.MapWrites != 1 {
		t.Fatalf("MapWrites = %d, want 1", dev.Count.MapWrites)
	}
	mustTouch(t, pt, 0, false, 4) // page 7 is clean: evicted without a write
	mustTouch(t, pt, 7, true, 4)
	if dev.Count.MapReads != 1 || dev.Count.MapWrites != 1 {
		t.Fatalf("MapReads, MapWrites = %d, %d, want 1, 1", dev.Count.MapReads, dev.Count.MapWrites)
	}
	// Re-flush invalidates the old location.
	if err := pt.WriteBack(7, 5); err != nil {
		t.Fatal(err)
	}
	if pt.resident != 1 {
		t.Fatalf("materialised pages = %d, want 1", pt.resident)
	}
	if _, _, invalid := dev.Array.CountStates(); invalid != 1 {
		t.Fatalf("invalid pages = %d, want 1 (superseded translation page)", invalid)
	}
}

// mustPanic fails unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestMapStoreMigration(t *testing.T) {
	pt := tinyTable(t, 1, 2, 8)
	mustTouch(t, pt, 1, true, 0)
	if err := pt.WriteBack(1, 0); err != nil {
		t.Fatal(err)
	}
	old := flash.PPN(pt.loc[1])
	pt.OnMigrate(1, old, old+100)
	if got := flash.PPN(pt.loc[1]); got != old+100 {
		t.Fatalf("page 1 at %d after migration, want %d", got, old+100)
	}
	mustPanic(t, "a stale relocation", func() { pt.OnMigrate(1, old, old+200) })
	mustPanic(t, "a relocation of a never-flushed page", func() { pt.OnMigrate(2, old+100, old) })
}

// The table is dense over the page ids its owner declared: a page outside
// it cannot be written back or migrated, and is refused on restore — as are
// a duplicated id and a location outside the device.
func TestMapStoreBoundsItsTable(t *testing.T) {
	pt := tinyTable(t, 1, 1, 4)
	dev := pt.dev
	for _, id := range []int64{-1, 4} {
		if err := pt.WriteBack(id, 3); err == nil {
			t.Errorf("WriteBack(%d) accepted an id outside the table", id)
		}
		mustPanic(t, "OnMigrate outside the table", func() { pt.OnMigrate(id, 0, 1) })
	}
	if pt.resident != 0 || dev.Count.MapWrites != 0 {
		t.Fatalf("refused write-backs left %d materialised pages, %d map writes", pt.resident, dev.Count.MapWrites)
	}

	pages := dev.Array.Geo.TotalPages()
	for _, tc := range []struct {
		name      string
		ids, ppns []int64
		ok        bool
	}{
		{"in range", []int64{0, 3}, []int64{5, 6}, true},
		{"id past the table", []int64{0, 4}, []int64{5, 6}, false},
		{"negative id", []int64{-1}, []int64{5}, false},
		{"duplicate id", []int64{2, 2}, []int64{5, 6}, false},
		{"location past the device", []int64{1}, []int64{pages}, false},
		{"location 2^40", []int64{1}, []int64{1 << 40}, false},
	} {
		fresh := NewPagedTable(dev, NewAllocator(dev, nil), obs.CachePMT, 1, 1, 4)
		enc := snapshot.NewEncoder()
		enc.Tag("cmt")
		enc.I64(1)
		if err := fresh.lru.SnapshotState(enc); err != nil {
			t.Fatal(err)
		}
		for range 5 {
			enc.I64(0) // statistics
		}
		enc.Tag("mapstore")
		enc.I64s(tc.ids)
		enc.I64s(tc.ppns)
		blob, err := enc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := snapshot.NewDecoder(blob)
		if err != nil {
			t.Fatal(err)
		}
		err = fresh.RestoreState(dec)
		if tc.ok != (err == nil) {
			t.Errorf("%s: RestoreState err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && fresh.resident != len(tc.ids) {
			t.Errorf("%s: materialised pages = %d, want %d", tc.name, fresh.resident, len(tc.ids))
		}
	}
}
