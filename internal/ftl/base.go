package ftl

import (
	"fmt"
	"math/bits"

	"across/internal/clock"
	"across/internal/flash"
	"across/internal/mapping"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// Base bundles the state every scheme shares: device, allocator, page
// mapping table, and derived geometry. Schemes embed it.
type Base struct {
	Conf *ssdconf.Config
	Dev  *Device
	Al   *Allocator
	PMT  *mapping.PMT
	SPP  int // sectors per page

	sectors  int64       // see LogicalSectors
	sppShift int         // log2(SPP), or -1 when SPP is no power of two; see pageSpan
	splitBuf []PageSlice // reused by Split; valid until the next Split call

	// pmt demand-pages the PMT (DFTL); nil means the whole table is in DRAM.
	pmt *PagedTable
}

// NewBase wires a fresh device, allocator and PMT for a configuration.
func NewBase(conf *ssdconf.Config) (Base, error) { return newBase(conf, conf.LogicalPages()) }

// NewBaseWithoutPMT is NewBase for a scheme that maps through tables of its
// own (MRSM): its PMT holds no entries, so a stray page-level lookup panics
// instead of answering NilPPN, and no page-level table is allocated, forked
// or sealed.
func NewBaseWithoutPMT(conf *ssdconf.Config) (Base, error) { return newBase(conf, 0) }

func newBase(conf *ssdconf.Config, pmtPages int64) (Base, error) {
	dev, err := NewDevice(conf)
	if err != nil {
		return Base{}, err
	}
	b := Base{
		Conf:     conf,
		Dev:      dev,
		Al:       NewAllocator(dev, nil),
		PMT:      mapping.NewPMT(pmtPages),
		SPP:      conf.SectorsPerPage(),
		sectors:  conf.LogicalSectors(),
		sppShift: shiftOf(conf.SectorsPerPage()),
	}
	b.Al.SetPrefetch(ownerPrefetch(b.PMT))
	return b, nil
}

// ownerPrefetch is the GC look-ahead hook of the schemes that map pages
// through a PMT: it hints the entry MigrateData will check for a data page.
func ownerPrefetch(pmt *mapping.PMT) PrefetchFunc {
	return func(tag flash.Tag, _ flash.PPN) {
		if tag.Kind == TagData {
			pmt.Prefetch(tag.Key)
		}
	}
}

// Device implements part of the Scheme interface.
func (b *Base) Device() *Device { return b.Dev }

// Allocator exposes the page allocator: ageing, the sampler and the checker
// read its free-space accounting, and the differential tests reach its
// reference victim scan through it.
func (b *Base) Allocator() *Allocator { return b.Al }

// LogicalSectors returns Conf.LogicalSectors(), computed once: the config
// method costs float arithmetic per call, which per-run callers (the shadow
// checker's ResolveRun) cannot afford.
func (b *Base) LogicalSectors() int64 { return b.sectors }

// PrefetchMap hints the PMT entries of r's first and last logical pages,
// which serving r will look up. Like every hint it reads no state, so r
// need not be valid: an entry outside the table is skipped.
func (b *Base) PrefetchMap(r trace.Request) {
	first, last := b.pageSpan(r)
	b.PMT.Prefetch(first)
	if last != first {
		b.PMT.Prefetch(last)
	}
}

// PrefetchData reads the PMT entries of r's first and last logical pages,
// cached by an earlier PrefetchMap, and hints the flash state of the pages
// they map to, which serving r will check or invalidate.
func (b *Base) PrefetchData(r trace.Request) {
	first, last := b.pageSpan(r)
	b.prefetchMapped(first)
	if last != first {
		b.prefetchMapped(last)
	}
}

func (b *Base) prefetchMapped(lpn int64) {
	if uint64(lpn) < uint64(b.PMT.Len()) {
		b.Dev.Array.PrefetchPage(b.PMT.PPNOf(lpn))
	}
}

// pageSpan returns r's first and last logical page, as FirstLPN and LastLPN
// do for a valid request. The host loop's hints and Split ask it of every
// request, so a page of a power-of-two sector count costs two shifts
// instead of two 64-bit divisions, which dominated the hints' cost.
func (b *Base) pageSpan(r trace.Request) (first, last int64) {
	if b.sppShift < 0 {
		return r.FirstLPN(b.SPP), r.LastLPN(b.SPP)
	}
	return r.Offset >> b.sppShift, (r.End() - 1) >> b.sppShift
}

// shiftOf returns log2(spp) when spp is a power of two, else -1.
func shiftOf(spp int) int {
	if spp > 0 && spp&(spp-1) == 0 {
		return bits.TrailingZeros(uint(spp))
	}
	return -1
}

// CheckRequest validates a request against the device's logical size.
func (b *Base) CheckRequest(r trace.Request) error {
	return r.Validate(b.sectors)
}

// PageSlice is one logical page's share of a request: the touched sector
// range [Start, End) expressed page-relative.
type PageSlice struct {
	LPN   int64
	Start int // first touched sector within the page
	End   int // exclusive end sector within the page
}

// Full reports whether the slice covers the whole page.
func (ps PageSlice) Full(spp int) bool { return ps.Start == 0 && ps.End == spp }

// Split cuts a request into per-page slices, the "sub-requests" of §2.1.
// The returned slice aliases a per-scheme scratch buffer: it is valid until
// the next Split call on the same scheme and must not be retained.
func (b *Base) Split(r trace.Request) []PageSlice {
	spp := int64(b.SPP)
	first, last := b.pageSpan(r)
	out := b.splitBuf[:0]
	for lpn := first; lpn <= last; lpn++ {
		ps := PageSlice{LPN: lpn, Start: 0, End: b.SPP}
		if lpn == first {
			ps.Start = int(r.Offset - lpn*spp)
		}
		if lpn == last {
			ps.End = int(r.End() - lpn*spp)
		}
		out = append(out, ps)
	}
	b.splitBuf = out
	return out
}

// WritePages is the page-mapped write path, taken by every write of FTL and
// DFTL and by Across-FTL's writes that touch no area: per page slice of r,
// one PMT access, a read of the old page when the slice is partial and the
// page is written (RMW), then a program of the whole page. It folds the
// programs into join and returns the serial DRAM delay of the PMT accesses.
func (b *Base) WritePages(r trace.Request, now float64, join *clock.Join) (float64, error) {
	var mapDelay float64
	for _, ps := range b.Split(r) {
		mapDelay += b.Dev.DRAMAccess(1) // PMT lookup + update
		ready := now
		if b.pmt != nil {
			at, _, err := b.pmt.Touch(ps.LPN, true, now)
			if err != nil {
				return mapDelay, err
			}
			ready = at
		}
		issue := ready
		if old := b.PMT.PPNOf(ps.LPN); old != flash.NilPPN && !ps.Full(b.SPP) {
			rdone, err := b.Dev.Read(old, ready, OpData)
			if err != nil {
				return mapDelay, fmt.Errorf("rmw read lpn %d: %w", ps.LPN, err)
			}
			issue = rdone
		}
		done, err := b.ProgramData(ps.LPN, issue)
		if err != nil {
			return mapDelay, fmt.Errorf("program lpn %d: %w", ps.LPN, err)
		}
		join.Add(done)
	}
	return mapDelay, nil
}

// readPages is the page-mapped read path: per page slice of r, one PMT
// access, then one flash read of the mapped page; a never-written page
// returns zeroes from the controller without flash work. It folds the reads
// into join and returns the serial DRAM delay of the PMT accesses.
func (b *Base) readPages(r trace.Request, now float64, join *clock.Join) (float64, error) {
	var mapDelay float64
	for _, ps := range b.Split(r) {
		mapDelay += b.Dev.DRAMAccess(1)
		ready := now
		if b.pmt != nil {
			at, _, err := b.pmt.Touch(ps.LPN, false, now)
			if err != nil {
				return mapDelay, err
			}
			ready = at
		}
		ppn := b.PMT.PPNOf(ps.LPN)
		if ppn == flash.NilPPN {
			continue
		}
		done, err := b.Dev.Read(ppn, ready, OpData)
		if err != nil {
			return mapDelay, fmt.Errorf("read lpn %d: %w", ps.LPN, err)
		}
		join.Add(done)
	}
	return mapDelay, nil
}

// ProgramData allocates and programs one data page owned by lpn at time
// issue, updating the PMT and invalidating the superseded page. It returns
// the program completion time.
func (b *Base) ProgramData(lpn int64, issue float64) (float64, error) {
	ppn, err := b.Al.AllocPage(issue)
	if err != nil {
		return issue, err
	}
	done, err := b.Dev.Program(ppn, flash.Tag{Kind: TagData, Key: lpn}, issue, OpData)
	if err != nil {
		return issue, err
	}
	if old := b.PMT.SetPPN(lpn, ppn); old != flash.NilPPN {
		if err := b.Dev.Invalidate(old); err != nil {
			return issue, err
		}
	}
	return done, nil
}

// MigrateData is the TagData arm every scheme's migration callback shares:
// it repoints the PMT entry that owns a GC-moved page.
func (b *Base) MigrateData(tag flash.Tag, old, new flash.PPN) {
	if b.PMT.PPNOf(tag.Key) != old {
		panic("ftl: GC moved a data page the PMT does not own")
	}
	b.PMT.SetPPN(tag.Key, new)
}
