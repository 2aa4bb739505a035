package ftl

import (
	"fmt"

	"across/internal/cache"
	"across/internal/flash"
)

// MapStore tracks where flash-resident translation pages currently live.
// Schemes whose mapping tables exceed DRAM (MRSM always; Across-FTL for its
// AMT) pair a cache.CMT (which decides *when* a translation page must be
// loaded or flushed) with a MapStore (which performs the resulting flash
// I/O, classed as OpMap).
//
// Translation pages are materialised lazily: a page that has never been
// flushed has no flash location, so its first load is free (the in-DRAM
// table starts zero-filled). This mirrors a freshly formatted DFTL-style
// directory and keeps Map reads attributable to genuine reload churn.
type MapStore struct {
	dev *Device
	al  *Allocator
	// loc is dense over the owner's translation-page ids, NilPPN where a
	// page was never materialised: Load and Flush are on MRSM's and DFTL's
	// per-request path, where a hash lookup showed in the profile.
	loc      []int32
	resident int
}

// NewMapStore creates an empty store for translation-page ids [0, pages);
// the owner knows its table size up front, as for cache.NewCMTDense.
func NewMapStore(dev *Device, al *Allocator, pages int64) *MapStore {
	m := &MapStore{dev: dev, al: al, loc: make([]int32, pages)}
	for i := range m.loc {
		m.loc[i] = int32(flash.NilPPN)
	}
	return m
}

// at returns a translation page's flash location, NilPPN when it has none
// (never flushed, or an id outside the table).
func (m *MapStore) at(pageID int64) flash.PPN {
	if pageID < 0 || pageID >= int64(len(m.loc)) {
		return flash.NilPPN
	}
	return flash.PPN(m.loc[pageID])
}

// Load charges the flash read for a translation-page miss, returning the
// completion time (now if the page was never materialised).
func (m *MapStore) Load(pageID int64, now float64) (float64, error) {
	ppn := m.at(pageID)
	if ppn == flash.NilPPN {
		return now, nil
	}
	return m.dev.Read(ppn, now, OpMap)
}

// Flush writes a dirty translation page to a fresh flash page, invalidating
// its previous location, and returns the completion time.
func (m *MapStore) Flush(pageID int64, now float64) (float64, error) {
	if pageID < 0 || pageID >= int64(len(m.loc)) {
		return now, fmt.Errorf("ftl: translation page %d outside the map store's %d pages", pageID, len(m.loc))
	}
	ppn, err := m.al.AllocPage(now)
	if err != nil {
		return now, err
	}
	done, err := m.dev.Program(ppn, flash.Tag{Kind: TagMap, Key: pageID}, now, OpMap)
	if err != nil {
		return now, err
	}
	if old := flash.PPN(m.loc[pageID]); old != flash.NilPPN {
		if err := m.dev.Invalidate(old); err != nil {
			return now, err
		}
	} else {
		m.resident++
	}
	m.loc[pageID] = int32(ppn)
	return done, nil
}

// OnMigrate repoints a translation page after GC moved it.
func (m *MapStore) OnMigrate(pageID int64, old, new flash.PPN) bool {
	if cur := m.at(pageID); cur != flash.NilPPN && cur == old {
		m.loc[pageID] = int32(new)
		return true
	}
	return false
}

// Resident returns the number of materialised translation pages.
func (m *MapStore) Resident() int { return m.resident }

// ApplyEffect executes the flash work a CMT touch demands and returns the
// time the mapping entry is usable. A dirty-victim flush is background work:
// it occupies its chip (delaying whatever queues behind it) but does not
// gate the requesting I/O, which only waits for the miss load of the entry
// it actually needs.
func (m *MapStore) ApplyEffect(e cache.Effect, pageID int64, now float64) (float64, error) {
	if e.FlushWrite {
		if _, err := m.Flush(e.Victim, now); err != nil {
			return now, err
		}
	}
	if e.MissRead {
		return m.Load(pageID, now)
	}
	return now, nil
}
