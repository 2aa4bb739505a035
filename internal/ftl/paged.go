package ftl

import (
	"fmt"

	"across/internal/cache"
	"across/internal/flash"
	"across/internal/obs"
)

// PagedTable is a mapping table demand-paged through DRAM: its entries are
// grouped into translation pages, an LRU of them is resident, and the rest
// live in flash. DFTL's PMT, Across-FTL's AMT and MRSM's tree nodes are each
// one. A touch of an entry touches its translation page; a miss reads that
// page from flash, after writing back a dirty victim, and both are charged
// to the device as Map traffic. The caller charges its own DRAM access.
//
// Translation pages are materialised lazily: a page that has never been
// flushed has no flash location, so its first load is free (the in-DRAM
// table starts zero-filled). This mirrors a freshly formatted DFTL-style
// directory and keeps Map reads attributable to genuine reload churn.
type PagedTable struct {
	dev     *Device
	al      *Allocator
	kind    obs.CacheKind
	perPage int64
	lru     *cache.LRU
	stats   cache.CMTStats
	// loc is dense over the translation-page ids, NilPPN where a page was
	// never materialised: loads and flushes are on the per-request path,
	// where a hash lookup showed in the profile. resident counts the pages
	// that have one.
	loc      []int32
	resident int
}

// NewPagedTable builds an empty table of entries mapping entries, grouped
// perPage to a translation page, with residentPages of those pages in DRAM.
// Both counts are clamped to at least 1. kind names the table in the
// tracer's cache events.
func NewPagedTable(dev *Device, al *Allocator, kind obs.CacheKind, perPage, residentPages int, entries int64) *PagedTable {
	perPage = max(perPage, 1)
	pages := max((entries+int64(perPage)-1)/int64(perPage), 1)
	t := &PagedTable{
		dev: dev, al: al, kind: kind, perPage: int64(perPage),
		lru: cache.NewLRUDense(residentPages, pages),
		loc: make([]int32, pages),
	}
	for i := range t.loc {
		t.loc[i] = int32(flash.NilPPN)
	}
	return t
}

// ResidentPages returns the DRAM budget in translation pages.
func (t *PagedTable) ResidentPages() int { return t.lru.Cap() }

// Touch accesses the entry with the given index at now; dirty marks it (and
// so its translation page) modified. On a miss it writes back the evicted
// victim if that is dirty, as background work that occupies its chip but
// does not gate the entry, and loads the entry's page. It returns the time
// the entry is usable and the id of the page written back, or -1.
func (t *PagedTable) Touch(entry int64, dirty bool, now float64) (ready float64, flushed int64, err error) {
	page := entry / t.perPage
	t.stats.Lookups++
	hit, victim, victimDirty, evicted := t.lru.Touch(page, dirty)
	if trc := t.dev.Tracer(); trc != nil {
		trc.CacheAccess(t.kind, hit, now)
	}
	if hit {
		t.stats.Hits++
		return now, -1, nil
	}
	t.stats.Misses++
	flushed = -1
	if evicted && victimDirty {
		t.stats.DirtyEvicts++
		flushed = victim
		if _, err := t.flush(victim, now); err != nil {
			return now, flushed, err
		}
	} else if evicted {
		t.stats.CleanEvicts++
	}
	ready, err = t.load(page, now)
	return ready, flushed, err
}

// Rehit is Touch of an entry in the most recently used translation page,
// for a caller that knows the entry lives there: it counts one lookup and
// one hit and ORs dirty into that page's dirty bit, as Touch would, without
// finding the page. The caller must know that its previous Touch was of
// that page and that nothing touched the table since.
func (t *PagedTable) Rehit(dirty bool, now float64) {
	t.stats.Lookups++
	t.stats.Hits++
	if dirty {
		t.lru.DirtyMRU()
	}
	if trc := t.dev.Tracer(); trc != nil {
		trc.CacheAccess(t.kind, true, now)
	}
}

// WriteBack flushes a translation page at now and marks it clean: a
// checkpoint of a resident page out of the LRU's order.
func (t *PagedTable) WriteBack(page int64, now float64) error {
	if _, err := t.flush(page, now); err != nil {
		return err
	}
	t.lru.Clean(page)
	return nil
}

// load charges the flash read of a translation page, returning the
// completion time (now if the page was never materialised).
func (t *PagedTable) load(page int64, now float64) (float64, error) {
	ppn := flash.PPN(t.loc[page])
	if ppn == flash.NilPPN {
		return now, nil
	}
	return t.dev.Read(ppn, now, OpMap)
}

// flush writes a translation page to a fresh flash page, invalidating its
// previous location, and returns the completion time.
func (t *PagedTable) flush(page int64, now float64) (float64, error) {
	if page < 0 || page >= int64(len(t.loc)) {
		return now, fmt.Errorf("ftl: translation page %d outside the table's %d pages", page, len(t.loc))
	}
	ppn, err := t.al.AllocPage(now)
	if err != nil {
		return now, err
	}
	done, err := t.dev.Program(ppn, flash.Tag{Kind: TagMap, Key: page}, now, OpMap)
	if err != nil {
		return now, err
	}
	if old := flash.PPN(t.loc[page]); old != flash.NilPPN {
		if err := t.dev.Invalidate(old); err != nil {
			return now, err
		}
	} else {
		t.resident++
	}
	t.loc[page] = int32(ppn)
	return done, nil
}

// OnMigrate repoints a translation page after GC moved it from old to new.
// It panics if the table does not hold the page at old: GC moves only
// pages their owner holds, so anything else is a bug.
func (t *PagedTable) OnMigrate(page int64, old, new flash.PPN) {
	if page < 0 || page >= int64(len(t.loc)) || flash.PPN(t.loc[page]) != old {
		panic("ftl: GC moved a translation page its paged table does not own")
	}
	t.loc[page] = int32(new)
}

// Stats returns a copy of the accumulated cache statistics.
func (t *PagedTable) Stats() cache.CMTStats { return t.stats }

// ResetStats zeroes the statistics (e.g. after warm-up) without disturbing
// the table.
func (t *PagedTable) ResetStats() { t.stats = cache.CMTStats{} }
