package cache

// CMTStats counts the externally visible effects of running a mapping table
// through the DRAM cache.
type CMTStats struct {
	Lookups     int64 // translation-page touches
	Hits        int64
	Misses      int64 // each miss costs one flash read of a translation page
	DirtyEvicts int64 // each costs one flash write of a translation page
	CleanEvicts int64
}

// HitRatio returns Hits/Lookups (1 when there were no lookups).
func (s CMTStats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// CMT is a cached mapping table: a set of translation pages (groups of
// mapping entries) resident in DRAM, with the remainder on flash. A lookup
// or update of a mapping entry touches the translation page that contains
// it; a miss requires reading that page from flash, possibly after writing
// back a dirty victim. The caller (the FTL scheme) converts the returned
// effects into flash operations so they are charged to the right timeline
// and counted as Map traffic.
type CMT struct {
	entriesPerPage int
	lru            *LRU
	stats          CMTStats
}

// Effect describes the flash work a single translation touch requires.
type Effect struct {
	MissRead   bool  // read the touched translation page from flash
	FlushWrite bool  // write back a dirty victim translation page first
	Victim     int64 // translation-page id of the flushed victim (valid if FlushWrite)
}

// NewCMTDense builds a cached mapping table. entriesPerPage is how many
// mapping entries one flash translation page holds; residentPages is the
// DRAM budget expressed in translation pages; totalEntries bounds the
// mapping table, and with it the translation-page id space of the cache's
// dense, churn-allocation-free residency table (see NewLRUDense). Every FTL
// scheme knows its table size up front.
func NewCMTDense(entriesPerPage, residentPages int, totalEntries int64) *CMT {
	if entriesPerPage < 1 {
		entriesPerPage = 1
	}
	pages := (totalEntries + int64(entriesPerPage) - 1) / int64(entriesPerPage)
	if pages < 1 {
		pages = 1
	}
	return &CMT{entriesPerPage: entriesPerPage, lru: NewLRUDense(residentPages, pages)}
}

// PageOf returns the translation-page id that stores an entry index.
func (c *CMT) PageOf(entry int64) int64 { return entry / int64(c.entriesPerPage) }

// EntriesPerPage returns the grouping factor.
func (c *CMT) EntriesPerPage() int { return c.entriesPerPage }

// ResidentPages returns the DRAM budget in translation pages.
func (c *CMT) ResidentPages() int { return c.lru.Cap() }

// Touch accesses the mapping entry with the given index; dirty marks the
// entry (and thus its page) modified. The returned Effect tells the caller
// what flash work to charge.
func (c *CMT) Touch(entry int64, dirty bool) Effect {
	pageID := c.PageOf(entry)
	c.stats.Lookups++
	hit, victim, victimDirty, evicted := c.lru.Touch(pageID, dirty)
	var e Effect
	if hit {
		c.stats.Hits++
		return e
	}
	c.stats.Misses++
	e.MissRead = true
	if evicted {
		if victimDirty {
			c.stats.DirtyEvicts++
			e.FlushWrite = true
			e.Victim = victim
		} else {
			c.stats.CleanEvicts++
		}
	}
	return e
}

// Rehit is Touch of an entry in the most recently used translation page,
// for a caller that knows the entry lives there: it counts one lookup and
// one hit and ORs dirty into that page's dirty bit, as Touch would, without
// finding the page. The caller must know that its previous Touch was of
// that page and that nothing touched the cache since.
func (c *CMT) Rehit(dirty bool) {
	c.stats.Lookups++
	c.stats.Hits++
	if dirty {
		c.lru.head.dirty = true
	}
}

// MarkClean clears the dirty bit of a resident translation page after its
// owner flushed it out of band (e.g. a forced checkpoint).
func (c *CMT) MarkClean(pageID int64) { c.lru.Clean(pageID) }

// Stats returns a copy of the accumulated statistics.
func (c *CMT) Stats() CMTStats { return c.stats }

// ResetStats zeroes the statistics (e.g. after warm-up) without disturbing
// cache contents.
func (c *CMT) ResetStats() { c.stats = CMTStats{} }
