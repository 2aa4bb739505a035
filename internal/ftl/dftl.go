package ftl

import (
	"across/internal/cache"
	"across/internal/clock"
	"across/internal/flash"
	"across/internal/obs"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// DefaultDFTLCacheFrac is the share of the page-mapping table DFTL keeps in
// DRAM by default. DFTL's point is exactly that the full table does *not*
// fit, so the default is deliberately small.
const DefaultDFTLCacheFrac = 0.10

// DFTL is a demand-paged page-level FTL (Gupta et al., ASPLOS 2009): the
// same data path as the Baseline scheme, but with the mapping table itself
// stored in flash and only a cached fraction resident in DRAM. It is not
// part of the paper's comparison — the paper's baseline holds its table in
// DRAM — but it brackets the design space between that baseline and MRSM:
// page-granularity mapping with translation-page traffic. The extension
// study ext-dftl uses it to show how much of MRSM's overhead is due to
// sub-page granularity rather than to table spilling itself.
type DFTL struct {
	Base
	cmt *cache.CMT
	ms  *MapStore
}

// NewDFTL builds the scheme with the default resident fraction.
func NewDFTL(conf *ssdconf.Config) (*DFTL, error) {
	return NewDFTLWithCache(conf, 0)
}

// NewDFTLWithCache builds DFTL with an explicit number of resident
// translation pages (0 = DefaultDFTLCacheFrac of the table).
func NewDFTLWithCache(conf *ssdconf.Config, residentPages int) (*DFTL, error) {
	base, err := NewBase(conf)
	if err != nil {
		return nil, err
	}
	entriesPerPage := conf.PageBytes / conf.MapEntryBytes
	totalPages := base.PMT.Len()/int64(entriesPerPage) + 1
	if residentPages == 0 {
		residentPages = int(float64(totalPages) * DefaultDFTLCacheFrac)
	}
	if residentPages < 2 {
		residentPages = 2
	}
	s := &DFTL{
		Base: base,
		cmt:  cache.NewCMTDense(entriesPerPage, residentPages, base.PMT.Len()),
	}
	s.ms = NewMapStore(s.Dev, s.Al, totalPages)
	s.Al.SetMigrate(s.migrate)
	return s, nil
}

// Name implements Scheme.
func (s *DFTL) Name() string { return "DFTL" }

// TableBytes implements Scheme: the table is the same size as the
// baseline's; only its residence differs.
func (s *DFTL) TableBytes() int64 { return s.PMT.Len() * int64(s.Conf.MapEntryBytes) }

// CMTStats exposes translation-cache behaviour.
func (s *DFTL) CMTStats() cache.CMTStats { return s.cmt.Stats() }

// ResetStats clears cache statistics between warm-up and measurement.
func (s *DFTL) ResetStats() { s.cmt.ResetStats() }

func (s *DFTL) migrate(tag flash.Tag, old, new flash.PPN) {
	switch tag.Kind {
	case TagData:
		s.MigrateData(tag, old, new)
	case TagMap:
		if !s.ms.OnMigrate(tag.Key, old, new) {
			panic("dftl: GC moved a translation page the map store does not own")
		}
	default:
		panic("dftl: GC met a foreign page tag")
	}
}

// touch charges one mapping-entry access through the translation cache and
// returns (serial DRAM delay, time the entry is usable).
func (s *DFTL) touch(lpn int64, dirty bool, now float64) (float64, float64, error) {
	delay := s.Dev.DRAMAccess(1)
	eff := s.cmt.Touch(lpn, dirty)
	if trc := s.Dev.Tracer(); trc != nil {
		trc.CacheAccess(obs.CacheMapping, !eff.MissRead, now)
	}
	ready, err := s.ms.ApplyEffect(eff, s.cmt.PageOf(lpn), now)
	return delay, ready, err
}

// Write implements Scheme: the Baseline data path behind a demand-paged
// mapping lookup.
func (s *DFTL) Write(r trace.Request, now float64) (float64, error) {
	if err := s.CheckRequest(r); err != nil {
		return now, err
	}
	join := clock.NewJoin(now)
	var mapDelay float64
	for _, ps := range s.Split(r) {
		d, ready, err := s.touch(ps.LPN, true, now)
		if err != nil {
			return now, err
		}
		mapDelay += d
		issue := ready
		if old := s.PMT.PPNOf(ps.LPN); old != flash.NilPPN && !ps.Full(s.SPP) {
			rdone, err := s.Dev.Read(old, ready, OpData)
			if err != nil {
				return now, errf(s.Name(), err, "rmw read lpn %d", ps.LPN)
			}
			issue = rdone
		}
		done, err := s.ProgramData(ps.LPN, issue)
		if err != nil {
			return now, errf(s.Name(), err, "program lpn %d", ps.LPN)
		}
		join.Add(done)
	}
	join.AddDelay(mapDelay)
	return join.Done(), nil
}

// Read implements Scheme.
func (s *DFTL) Read(r trace.Request, now float64) (float64, error) {
	if err := s.CheckRequest(r); err != nil {
		return now, err
	}
	join := clock.NewJoin(now)
	var mapDelay float64
	for _, ps := range s.Split(r) {
		d, ready, err := s.touch(ps.LPN, false, now)
		if err != nil {
			return now, err
		}
		mapDelay += d
		ppn := s.PMT.PPNOf(ps.LPN)
		if ppn == flash.NilPPN {
			continue
		}
		done, err := s.Dev.Read(ppn, ready, OpData)
		if err != nil {
			return now, errf(s.Name(), err, "read lpn %d", ps.LPN)
		}
		join.Add(done)
	}
	join.AddDelay(mapDelay)
	return join.Done(), nil
}

var _ Scheme = (*DFTL)(nil)
