package ftl

import (
	"fmt"

	"across/internal/cache"
	"across/internal/clock"
	"across/internal/flash"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// Baseline is the conventional dynamic page-level mapping FTL ("FTL" in the
// paper's comparison): requests split into page-sized sub-requests, partial
// pages are serviced with read-modify-write, and the full mapping table
// resides in DRAM so it generates no Map flash traffic. Across-page requests
// therefore cost two flash programs (and up to two RMW reads) — the penalty
// quantified in Fig 4 and removed by Across-FTL. Built by NewDFTL, the same
// scheme demand-pages its table instead (DFTL).
type Baseline struct {
	Base
}

// NewBaseline builds the baseline scheme on a fresh device.
func NewBaseline(conf *ssdconf.Config) (*Baseline, error) {
	base, err := NewBase(conf)
	if err != nil {
		return nil, err
	}
	s := &Baseline{Base: base}
	s.Al.SetMigrate(s.migrate)
	return s, nil
}

// Name implements Scheme.
func (s *Baseline) Name() string {
	if s.pmt != nil {
		return "DFTL"
	}
	return "FTL"
}

// TableBytes implements Scheme: one entry per logical page, wherever it
// resides.
func (s *Baseline) TableBytes() int64 {
	return s.PMT.Len() * int64(s.Conf.MapEntryBytes)
}

// CMTStats exposes translation-cache behaviour: zero when the table is
// resident.
func (s *Baseline) CMTStats() cache.CMTStats {
	if s.pmt == nil {
		return cache.CMTStats{}
	}
	return s.pmt.Stats()
}

// ResetStats clears cache statistics between warm-up and measurement.
func (s *Baseline) ResetStats() {
	if s.pmt != nil {
		s.pmt.ResetStats()
	}
}

func (s *Baseline) migrate(tag flash.Tag, old, new flash.PPN) {
	switch {
	case tag.Kind == TagData:
		s.MigrateData(tag, old, new)
	case tag.Kind == TagMap && s.pmt != nil:
		s.pmt.OnMigrate(tag.Key, old, new)
	default:
		panic("ftl: baseline GC met a foreign page tag")
	}
}

// Write implements Scheme through the page-mapped write path (WritePages).
func (s *Baseline) Write(r trace.Request, now float64) (float64, error) {
	if err := s.CheckRequest(r); err != nil {
		return now, err
	}
	join := clock.NewJoin(now)
	mapDelay, err := s.WritePages(r, now, &join)
	if err != nil {
		return now, fmt.Errorf("%s: %w", s.Name(), err)
	}
	join.AddDelay(mapDelay)
	return join.Done(), nil
}

// Read implements Scheme through the page-mapped read path (readPages).
func (s *Baseline) Read(r trace.Request, now float64) (float64, error) {
	if err := s.CheckRequest(r); err != nil {
		return now, err
	}
	join := clock.NewJoin(now)
	mapDelay, err := s.readPages(r, now, &join)
	if err != nil {
		return now, fmt.Errorf("%s: %w", s.Name(), err)
	}
	join.AddDelay(mapDelay)
	return join.Done(), nil
}

var _ Scheme = (*Baseline)(nil)
