// Package acrossftl implements Across-FTL, the paper's contribution (§3): a
// flash-translation layer that re-aligns across-page requests — requests no
// larger than one SSD page that nevertheless span two logical pages — by
// remapping them onto a single physical page through a two-level mapping
// table (PMT + AMT). Both the write and subsequent reads of the across-page
// data then complete with one page-level flash operation instead of two.
//
// Updates that overlap a remapped area are serviced with the paper's two
// policies: AMerge folds the update into the area and moves it to a fresh
// page while the merged extent still fits in one page; ARollback dissolves
// the area back into normally mapped pages when it no longer fits.
package acrossftl

import (
	"across/internal/cache"
	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/mapping"
	"across/internal/obs"
	"across/internal/ssdconf"
)

// DefaultAMTCacheFrac is the share of the DRAM mapping budget reserved for
// resident AMT translation pages. The PMT (first level) is DRAM-resident in
// full, as in the paper; only the AMT spills through the cached mapping
// table, which is why Across-FTL's Map flash traffic stays small (≈2.6% of
// writes in Fig 10a) compared to MRSM's.
const DefaultAMTCacheFrac = 0.02

// Options tune Across-FTL for ablation studies; the zero value is the
// paper's design.
type Options struct {
	// AMTCachePages overrides the DRAM-resident AMT translation-page count
	// (0 = DefaultAMTCacheFrac of the DRAM budget, minimum 2).
	AMTCachePages int
	// DisableAMerge turns the AMerge policy off: every update conflicting
	// with an area takes the ARollback path, as if only the rollback rule
	// of §3.3.1 existed.
	DisableAMerge bool
}

// Scheme is the Across-FTL implementation of ftl.Scheme.
type Scheme struct {
	ftl.Base
	AMT *mapping.AMT

	cmt *cache.CMT    // caches AMT translation pages within the DRAM budget
	ms  *ftl.MapStore // flash residence of spilled AMT translation pages

	opts  Options
	stats Stats

	// Per-request scratch buffers, reused so the steady-state write/read
	// paths allocate nothing. Each is valid only within one request.
	areasBuf []area
	covBuf   []span
	gapsBuf  []span
	spanBuf  []span
	srcsBuf  []Source
	needsBuf []pageNeed
	lpnsBuf  []int64
}

// pageNeed is one normally mapped page a read plan or merge must fetch,
// with the absolute sector range needed from it.
type pageNeed struct {
	lpn    int64
	lo, hi int64
}

// New builds Across-FTL on a fresh device with the paper's defaults.
func New(conf *ssdconf.Config) (*Scheme, error) {
	return NewWithOptions(conf, Options{})
}

// NewWithOptions builds Across-FTL with explicit ablation options.
func NewWithOptions(conf *ssdconf.Config, opts Options) (*Scheme, error) {
	base, err := ftl.NewBase(conf)
	if err != nil {
		return nil, err
	}
	if opts.AMTCachePages == 0 {
		opts.AMTCachePages = int(float64(conf.DRAMBudget()) * DefaultAMTCacheFrac / float64(conf.PageBytes))
	}
	if opts.AMTCachePages < 2 {
		opts.AMTCachePages = 2
	}
	entriesPerPage := conf.PageBytes / conf.AMTEntryBytes
	s := &Scheme{
		Base: base,
		AMT:  mapping.NewAMT(),
		cmt:  cache.NewCMT(entriesPerPage, opts.AMTCachePages),
		opts: opts,
	}
	s.ms = ftl.NewMapStore(s.Dev, s.Al, amtPages(conf))
	s.Al.SetMigrate(s.migrate)
	return s, nil
}

// amtPages bounds the AMT's translation-page ids. The PMT holds one AIdx per
// logical page, so at most LogicalPages areas are live at once, and the AMT
// recycles indices before growing: every index is below LogicalPages.
func amtPages(conf *ssdconf.Config) int64 {
	return conf.LogicalPages()/int64(conf.PageBytes/conf.AMTEntryBytes) + 1
}

// Name implements ftl.Scheme.
func (s *Scheme) Name() string { return "Across-FTL" }

// TableBytes implements ftl.Scheme: the PMT entry grows by the AIdx field
// and the AMT contributes its high-water mark of 16-byte entries (Fig 12a).
func (s *Scheme) TableBytes() int64 {
	pmt := s.PMT.Len() * int64(s.Conf.MapEntryBytes+s.Conf.AIdxBytes)
	amt := int64(s.AMT.Peak()) * int64(s.Conf.AMTEntryBytes)
	return pmt + amt
}

// Stats returns the across-page bookkeeping behind Fig 8.
func (s *Scheme) Stats() Stats { return s.stats }

// ResetStats clears the across-page statistics (after warm-up).
func (s *Scheme) ResetStats() {
	s.stats = Stats{}
	s.cmt.ResetStats()
}

// CMTStats exposes the AMT cache behaviour for diagnostics.
func (s *Scheme) CMTStats() cache.CMTStats { return s.cmt.Stats() }

// migrate is the GC callback: it repoints whichever structure owns a moved
// page — the PMT for data pages, the AMT for across-area pages, the map
// store for spilled AMT translation pages.
func (s *Scheme) migrate(tag flash.Tag, old, new flash.PPN) {
	switch tag.Kind {
	case ftl.TagData:
		s.MigrateData(tag, old, new)
	case ftl.TagAcross:
		idx := int32(tag.Key)
		if !s.AMT.InUse(idx) || s.AMT.Get(idx).APPN != old {
			panic("acrossftl: GC moved an across page the AMT does not own")
		}
		s.AMT.SetAPPN(idx, new)
	case ftl.TagMap:
		if !s.ms.OnMigrate(tag.Key, old, new) {
			panic("acrossftl: GC moved a translation page the map store does not own")
		}
	default:
		panic("acrossftl: GC met a foreign page tag")
	}
}

// touchAMT charges one AMT entry access: a DRAM access plus whatever flash
// work the cached-mapping-table decides is needed. It returns the serial
// DRAM delay and the time the entry is usable for dependent flash ops.
func (s *Scheme) touchAMT(idx int32, dirty bool, now float64) (delay, ready float64, err error) {
	delay = s.Dev.DRAMAccess(1)
	eff := s.cmt.Touch(int64(idx), dirty)
	if trc := s.Dev.Tracer(); trc != nil {
		trc.CacheAccess(obs.CacheMapping, !eff.MissRead, now)
	}
	ready, err = s.ms.ApplyEffect(eff, s.cmt.PageOf(int64(idx)), now)
	return delay, ready, err
}

var _ ftl.Scheme = (*Scheme)(nil)
