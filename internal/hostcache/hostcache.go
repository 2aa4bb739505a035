// Package hostcache implements the controller's DRAM data buffer — the
// "Cache size" row of the paper's Table 1 that the core comparison holds
// constant across schemes. It wraps any ftl.Scheme: reads whose pages are
// all resident are served at DRAM speed; everything else passes through to
// the wrapped scheme and populates the cache.
//
// The wrapper is deliberately scheme-agnostic so the cache benefit applies
// identically to FTL, MRSM and Across-FTL (as it does on a real device); it
// exists to study how much of the across-page penalty a data buffer can and
// cannot hide. A buffer absorbs repeated *reads*, but every write must still
// reach flash — so the flush-count and erase results of the paper are
// unaffected by it, which is what the root TestNewRunnerWithHostCache pins.
package hostcache

import (
	"across/internal/cache"
	"across/internal/ftl"
	"across/internal/obs"
	"across/internal/trace"
)

// Stats counts cache behaviour.
type Stats struct {
	ReadHits   int64 // read requests served entirely from DRAM
	ReadMisses int64 // read requests that touched flash
	Inserted   int64 // pages populated
}

// Scheme wraps an inner FTL scheme with a page-granularity read cache.
type Scheme struct {
	inner   ftl.Scheme
	lru     *cache.LRU
	spp     int
	sectors int64 // the device's logical size, computed once
	stats   Stats
}

// Wrap builds the cache in front of inner with capacity for cachePages
// logical pages.
func Wrap(inner ftl.Scheme, cachePages int) *Scheme {
	return &Scheme{
		inner:   inner,
		lru:     cache.NewLRU(cachePages),
		spp:     inner.Device().Conf.SectorsPerPage(),
		sectors: inner.Device().Conf.LogicalSectors(),
	}
}

// Name implements ftl.Scheme.
func (s *Scheme) Name() string { return s.inner.Name() + "+cache" }

// Device implements ftl.Scheme.
func (s *Scheme) Device() *ftl.Device { return s.inner.Device() }

// TableBytes implements ftl.Scheme (the data buffer is not mapping state).
func (s *Scheme) TableBytes() int64 { return s.inner.TableBytes() }

// Stats returns the cache census.
func (s *Scheme) Stats() Stats { return s.stats }

// Inner returns the wrapped scheme. Capabilities the cache does not add
// itself — auditing, sector resolution, the page allocator, the
// mapping-cache and Across-FTL censuses — are found there with ftl.As (a
// cache hit serves a copy of exactly the data the inner scheme's source
// holds): the data buffer holds copies,
// never the sole copy (writes are write-through), so the inner scheme's
// state is the device's.
func (s *Scheme) Inner() ftl.Scheme { return s.inner }

// ResetStats clears the census and forwards to the inner scheme.
func (s *Scheme) ResetStats() {
	s.stats = Stats{}
	if sr, ok := s.inner.(interface{ ResetStats() }); ok {
		sr.ResetStats()
	}
}

// Write implements ftl.Scheme: write-through. A full-page slice leaves the
// page resident (its DRAM copy is complete); a partial slice of a
// non-resident page cannot create a complete copy, so the page is evicted
// if stale-prone and otherwise left alone.
func (s *Scheme) Write(r trace.Request, now float64) (float64, error) {
	done, err := s.inner.Write(r, now)
	if err != nil {
		return done, err
	}
	first, last := r.FirstLPN(s.spp), r.LastLPN(s.spp)
	for lpn := first; lpn <= last; lpn++ {
		fullStart := lpn * int64(s.spp)
		fullEnd := fullStart + int64(s.spp)
		covered := r.Offset <= fullStart && r.End() >= fullEnd
		if covered {
			if hit, _, _, _ := s.lru.Touch(lpn, false); !hit {
				s.stats.Inserted++
			}
			continue
		}
		// A partial update of a resident page keeps it current (the DRAM
		// copy is updated in place); a partial update of an absent page
		// cannot make it resident.
		if s.lru.Contains(lpn) {
			s.lru.Touch(lpn, false)
		}
	}
	return done, nil
}

// Read implements ftl.Scheme: a request whose pages are all resident costs
// one DRAM access per page; otherwise it passes through and populates.
func (s *Scheme) Read(r trace.Request, now float64) (float64, error) {
	if err := r.Validate(s.sectors); err != nil {
		return now, err
	}
	first, last := r.FirstLPN(s.spp), r.LastLPN(s.spp)
	allResident := true
	for lpn := first; lpn <= last; lpn++ {
		if !s.lru.Contains(lpn) {
			allResident = false
			break
		}
	}
	if allResident {
		s.stats.ReadHits++
		if trc := s.Device().Tracer(); trc != nil {
			trc.CacheAccess(obs.CacheHostData, true, now)
		}
		delay := s.Device().DRAMAccess(int(last - first + 1))
		// Refresh recency.
		for lpn := first; lpn <= last; lpn++ {
			s.lru.Touch(lpn, false)
		}
		return now + delay, nil
	}
	s.stats.ReadMisses++
	if trc := s.Device().Tracer(); trc != nil {
		trc.CacheAccess(obs.CacheHostData, false, now)
	}
	done, err := s.inner.Read(r, now)
	if err != nil {
		return done, err
	}
	// The flash reads returned whole pages; they are now resident.
	for lpn := first; lpn <= last; lpn++ {
		if hit, _, _, _ := s.lru.Touch(lpn, false); !hit {
			s.stats.Inserted++
		}
	}
	return done, nil
}

var _ ftl.Scheme = (*Scheme)(nil)
