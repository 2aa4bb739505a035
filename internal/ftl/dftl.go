package ftl

import (
	"across/internal/obs"
	"across/internal/ssdconf"
)

// DefaultDFTLCacheFrac is the share of the page-mapping table DFTL keeps in
// DRAM by default. DFTL's point is exactly that the full table does *not*
// fit, so the default is deliberately small.
const DefaultDFTLCacheFrac = 0.10

// NewDFTL builds DFTL, a demand-paged page-level FTL (Gupta et al., ASPLOS
// 2009), with the default resident fraction: the baseline FTL with its
// mapping table stored in flash and only a cached share of it in DRAM. It
// is not part of the paper's comparison — the paper's baseline holds its
// table in DRAM — but it brackets the design space between that baseline
// and MRSM: page-granularity mapping with translation-page traffic. The
// extension study ext-dftl uses it to show how much of MRSM's overhead is
// due to sub-page granularity rather than to table spilling itself.
func NewDFTL(conf *ssdconf.Config) (*Baseline, error) {
	return NewDFTLWithCache(conf, 0)
}

// NewDFTLWithCache builds DFTL with an explicit number of resident
// translation pages (0 = DefaultDFTLCacheFrac of the table).
func NewDFTLWithCache(conf *ssdconf.Config, residentPages int) (*Baseline, error) {
	s, err := NewBaseline(conf)
	if err != nil {
		return nil, err
	}
	perPage := conf.PageBytes / conf.MapEntryBytes
	if residentPages == 0 {
		residentPages = int(float64(s.PMT.Len()/int64(perPage)+1) * DefaultDFTLCacheFrac)
	}
	s.pmt = NewPagedTable(s.Dev, s.Al, obs.CachePMT, perPage, max(residentPages, 2), s.PMT.Len())
	return s, nil
}
