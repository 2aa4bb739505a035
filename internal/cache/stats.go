package cache

// CMTStats counts the externally visible effects of running a mapping table
// through a DRAM cache of its translation pages (ftl.PagedTable).
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
