// Package mrsm implements the MRSM comparator of the paper (Chen et al.,
// "Beyond address mapping: a user-oriented multiregional space management
// design for 3-D NAND flash memory", TCAD 2020), as characterised in §2.2
// and §4 of the Across-FTL paper:
//
//   - sub-page-granularity mapping: each logical page is divided into
//     sub-page regions with their own mapping entries, so unaligned and
//     across-page writes are packed compactly into physical pages without
//     read-modify-write — fewer data writes than the baseline FTL;
//   - the price is a mapping table ~2.4x the baseline's, of which only the
//     DRAM budget's worth stays resident: the rest lives in flash and is
//     loaded/flushed through a cached mapping table, generating the heavy
//     Map read/write traffic of Fig 10 and the extra erases of Fig 11;
//   - lookups walk a tree index, multiplying DRAM accesses (Fig 12b).
package mrsm

import (
	"fmt"
	"math"
	"unsafe"

	"across/internal/cache"
	"across/internal/clock"
	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/obs"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// treeFanout is the branching factor of MRSM's mapping index; lookups cost
// ceil(log_fanout(entries)) DRAM accesses and updates cost twice that (walk
// down plus modify/rebalance back up) — the mechanism behind MRSM's ~32x
// DRAM access count in Fig 12(b).
const treeFanout = 8

// nodeEntries is how many sub-page mapping entries one tree node (the unit
// cached in DRAM and spilled to flash) holds. Tree nodes have far less
// spatial locality than a dense translation page, which is why MRSM's map
// traffic dominates its flash ops (36.9% of writes / 34.4% of reads in
// Fig 10) while the schemes with dense tables barely spill.
const nodeEntries = 256

// maxNodeDirty bounds the number of un-persisted updates a resident tree
// node may accumulate before it is checkpointed to flash: controllers cap
// dirty mapping state for power-loss recovery, and a sub-page table dirties
// entries several times faster than a page-level one. This bound is what
// keeps MRSM's mapping-table flushes proportional to its data writes.
const maxNodeDirty = 12

// unmapped marks an empty entry of the location and census tables.
const unmapped = -1

// Scheme is the MRSM implementation of ftl.Scheme.
type Scheme struct {
	ftl.Base

	subPerPg int // sub-pages per page
	subSec   int // sectors per sub-page
	depth    int // tree lookup cost in DRAM accesses

	// The three per-sub-page / per-page tables are 32- and 8-bit columns:
	// New refuses a geometry whose slot space does not fit (DESIGN §7).
	subLoc []int32 // logical sub-page -> physical sub-slot

	// Packed-page census, flat over the physical page space: pageOwner names
	// the logical sub-page held by each physical sub-slot (unmapped when
	// dead) and pageLive counts a page's live slots (0 = not an MRSM data
	// page). Flat arrays rather than a map of per-page census objects:
	// packed pages are created and killed on every flush/invalidate, and
	// both the map's bucket churn and the census allocations were the
	// scheme's dominant steady-state allocation sources.
	pageOwner []int32 // ppn*subPerPg + slot -> logical sub-page
	pageLive  []uint8 // ppn -> live slot count

	nodes     *ftl.PagedTable // the tree's nodes over sub-page entries, demand-paged
	nodeDirty []int32         // un-persisted updates per tree node, indexed by node id

	// Pack buffer: sub-pages accumulated in controller RAM until a full
	// physical page can be programmed. At most subPerPg entries, so
	// membership tests scan the slice instead of keeping an inverse map.
	bufList []int64 // buffer slot -> logical sub-page

	// ppnScratch is the per-request list of distinct physical pages to
	// read (RMW sources on writes, data sources on reads); reusing it
	// keeps the steady-state request path allocation-free.
	ppnScratch []flash.PPN

	// subsPool recycles the pack buffers takeBuffer detaches; entries may
	// be in flight across a nested GC flush, hence a pool rather than a
	// single scratch slice.
	subsPool  [][]int64
	ownersBuf []int32 // salvage's snapshot of a victim's slot owners
}

// New builds MRSM on a fresh device. The DRAM budget (by default the size of
// the baseline FTL's table) caps the resident fraction of the sub-page
// mapping table; with the default sizing ~40% stays in DRAM, matching the
// paper's 42.1%.
func New(conf *ssdconf.Config) (*Scheme, error) {
	if err := conf.Validate(); err != nil {
		return nil, err
	}
	subPerPg := conf.SubPagesPerPg
	if err := flash.CheckIndex32("physical sub-page slots", conf.PagesTotal()*int64(subPerPg)); err != nil {
		return nil, err
	}
	if subPerPg > math.MaxUint8 {
		return nil, fmt.Errorf("%w: %d sub-pages per page, limit %d", flash.ErrGeometryTooLarge, subPerPg, math.MaxUint8)
	}
	base, err := ftl.NewBaseWithoutPMT(conf)
	if err != nil {
		return nil, err
	}
	totalSub := conf.LogicalPages() * int64(subPerPg)
	nodeBytes := int64(nodeEntries * conf.MRSMEntryBytes)
	residentNodes := int(conf.DRAMBudget() / nodeBytes)
	numNodes := (totalSub + nodeEntries - 1) / nodeEntries
	totalPages := base.Dev.Array.Geo.TotalPages()
	s := &Scheme{
		Base:      base,
		subPerPg:  subPerPg,
		subSec:    conf.SectorsPerPage() / subPerPg,
		depth:     treeDepth(totalSub),
		subLoc:    make([]int32, totalSub),
		pageOwner: make([]int32, totalPages*int64(subPerPg)),
		pageLive:  make([]uint8, totalPages),
		nodeDirty: make([]int32, numNodes),
	}
	fillUnmapped(s.subLoc)
	fillUnmapped(s.pageOwner)
	s.nodes = ftl.NewPagedTable(s.Dev, s.Al, obs.CacheNode, nodeEntries, residentNodes, totalSub)
	s.Al.SetMigrate(s.migrate)
	s.Al.SetSalvage(s.salvage)
	s.Al.SetPrefetch(s.prefetchSalvage)
	return s, nil
}

func treeDepth(n int64) int {
	if n < 2 {
		return 1
	}
	d := int(math.Ceil(math.Log(float64(n)) / math.Log(treeFanout)))
	if d < 2 {
		d = 2
	}
	return d
}

// fillUnmapped empties a table by doubling copies: a fork builds both per
// job, and memmove fills them several times faster than a store per entry.
func fillUnmapped(col []int32) {
	if len(col) == 0 {
		return
	}
	col[0] = unmapped
	for n := 1; n < len(col); n *= 2 {
		copy(col[n:], col[:n])
	}
}

// Name implements ftl.Scheme.
func (s *Scheme) Name() string { return "MRSM" }

// TableBytes implements ftl.Scheme: a dense sub-page-granularity table.
func (s *Scheme) TableBytes() int64 {
	return int64(len(s.subLoc)) * int64(s.Conf.MRSMEntryBytes)
}

// ResidentFraction reports how much of the mapping table fits in DRAM
// (the paper quotes 42.1%).
func (s *Scheme) ResidentFraction() float64 {
	nodeBytes := int64(nodeEntries * s.Conf.MRSMEntryBytes)
	return float64(int64(s.nodes.ResidentPages())*nodeBytes) / float64(s.TableBytes())
}

// CMTStats exposes mapping-cache behaviour.
func (s *Scheme) CMTStats() cache.CMTStats { return s.nodes.Stats() }

// ResetStats clears cache statistics after warm-up.
func (s *Scheme) ResetStats() { s.nodes.ResetStats() }

// migrate is the GC callback: MRSM data pages move wholesale (slot layout
// preserved); translation pages route to the node table; plain data pages
// never exist under MRSM, so TagData is foreign.
func (s *Scheme) migrate(tag flash.Tag, old, new flash.PPN) {
	switch tag.Kind {
	case ftl.TagMRSM:
		if s.pageLive[old] == 0 {
			panic("mrsm: GC moved a packed page the scheme does not own")
		}
		oldBase := int32(old) * int32(s.subPerPg)
		newBase := int32(new) * int32(s.subPerPg)
		for slot := int32(0); slot < int32(s.subPerPg); slot++ {
			sub := s.pageOwner[oldBase+slot]
			s.pageOwner[oldBase+slot] = unmapped
			s.pageOwner[newBase+slot] = sub
			if sub != unmapped {
				s.subLoc[sub] = newBase + slot
			}
		}
		s.pageLive[new] = s.pageLive[old]
		s.pageLive[old] = 0
	case ftl.TagMap:
		s.nodes.OnMigrate(tag.Key, old, new)
	default:
		panic("mrsm: GC met a foreign page tag")
	}
}

// nodeRun is the tree node a request's previous mapping touch resolved:
// sub-pages below end live in node. A request touches its sub-pages in
// ascending order, so it looks a node up once per run of them.
type nodeRun struct{ node, end int64 }

// touchEntry charges one sub-page mapping access: a tree walk in DRAM plus
// the node table's flash work. run carries the request's node from touch to
// touch; a nil run looks every sub-page's node up.
//
// A sub-page in run's node is a Rehit: that node is still the table's most
// recently used, because between two touches of one request nothing else
// touches the table. GC (migrate, salvage), the table's flushes and loads,
// and the checkpoint below only read and write flash and the scheme's own
// tables; WriteBack clears a dirty bit and keeps the order.
func (s *Scheme) touchEntry(sub int64, run *nodeRun, dirty bool, now float64) (delay, ready float64, err error) {
	walk := s.depth
	if dirty {
		walk *= 2 // descend, then modify and rebalance back up
	}
	delay = s.Dev.DRAMAccess(walk)
	var node int64
	if run != nil && sub < run.end {
		s.nodes.Rehit(dirty, now)
		node, ready = run.node, now
	} else {
		var flushed int64
		node = sub / nodeEntries
		ready, flushed, err = s.nodes.Touch(sub, dirty, now)
		if flushed >= 0 {
			s.nodeDirty[flushed] = 0
		}
		if run != nil {
			run.node, run.end = node, (node+1)*nodeEntries
		}
	}
	if err != nil || !dirty {
		return delay, ready, err
	}
	// Checkpoint the node once it exceeds its dirty-update budget. The
	// checkpoint is background work: it occupies the chip but does not gate
	// the triggering request.
	if s.nodeDirty[node]++; s.nodeDirty[node] >= maxNodeDirty {
		s.nodeDirty[node] = 0
		if err := s.nodes.WriteBack(node, now); err != nil {
			return delay, ready, err
		}
	}
	return delay, ready, nil
}

// invalidateSub kills the flash copy of a logical sub-page, invalidating the
// physical page once its last live slot dies.
func (s *Scheme) invalidateSub(sub int64) error {
	loc := s.subLoc[sub]
	if loc == unmapped {
		return nil
	}
	ppn := flash.PPN(loc / int32(s.subPerPg))
	if int64(s.pageOwner[loc]) != sub || s.pageLive[ppn] == 0 {
		panic("mrsm: sub-page location table out of sync")
	}
	s.pageOwner[loc] = unmapped
	s.pageLive[ppn]--
	s.subLoc[sub] = unmapped
	if s.pageLive[ppn] == 0 {
		return s.Dev.Invalidate(ppn)
	}
	return nil
}

// PrefetchMap hints the location entry of r's first sub-page, which
// serving r will look up. It reads no state, and a sub-page outside the
// table is skipped. The sub-pages of one request sit side by side in subLoc,
// so the first one's line is usually the whole request's.
func (s *Scheme) PrefetchMap(r trace.Request) {
	if sub := r.Offset / int64(s.subSec); uint64(sub) < uint64(len(s.subLoc)) {
		flash.Prefetch(unsafe.Pointer(&s.subLoc[sub]))
	}
}

// hintPages bounds PrefetchData's walk to the sub-pages of a request's
// first hintPages logical pages, so a long or hostile request costs a
// hint no more than a short one.
const hintPages = 4

// PrefetchData reads the locations of r's sub-pages, cached by an earlier
// PrefetchMap, and hints, for each distinct old page they name, the three
// lines invalidateSub and flash.Array.Invalidate load when r overwrites it:
// the census slot in pageOwner, the page's pageLive byte and its flash
// metadata byte. Sub-pages outside the table are skipped.
func (s *Scheme) PrefetchData(r trace.Request) {
	first := r.Offset / int64(s.subSec)
	if uint64(first) >= uint64(len(s.subLoc)) {
		return
	}
	end := min(int64(len(s.subLoc)), first+int64(hintPages*s.subPerPg))
	if last := (r.End() - 1) / int64(s.subSec); last >= first && last < end {
		end = last + 1
	}
	prev := int32(unmapped)
	for _, loc := range s.subLoc[first:end] {
		if uint32(loc) >= uint32(len(s.pageOwner)) {
			continue
		}
		if ppn := loc / int32(s.subPerPg); ppn != prev {
			prev = ppn
			flash.Prefetch(unsafe.Pointer(&s.pageOwner[loc]))
			flash.Prefetch(unsafe.Pointer(&s.pageLive[ppn]))
			s.Dev.Array.PrefetchPage(flash.PPN(ppn))
		}
	}
}

// prefetchSalvage is the GC look-ahead hook: for a packed page collect will
// reach soon, it hints the location entry of each live slot's owner, which
// salvage will invalidate.
func (s *Scheme) prefetchSalvage(tag flash.Tag, ppn flash.PPN) {
	if tag.Kind != ftl.TagMRSM || uint64(ppn) >= uint64(len(s.pageLive)) {
		return
	}
	base := int(ppn) * s.subPerPg
	for _, sub := range s.pageOwner[base : base+s.subPerPg] {
		if uint32(sub) < uint32(len(s.subLoc)) {
			flash.Prefetch(unsafe.Pointer(&s.subLoc[sub]))
		}
	}
}

// flushPack programs the accumulated pack buffer as one physical page and
// installs the sub-page mappings. Returns the program completion time.
func (s *Scheme) flushPack(issue float64) (float64, error) {
	// Snapshot the buffer before allocating: the allocation can trigger GC,
	// whose salvage path stages fresh sub-pages into the (new, empty)
	// buffer. Installing from a live buffer would overflow the page.
	subs := s.takeBuffer()
	ppn, err := s.Al.AllocPage(issue)
	if err != nil {
		return issue, err
	}
	return s.installPack(ppn, subs, issue, ftl.OpData)
}

// flushPackGC is flushPack on the GC allocation path, used while salvaging
// a collection victim (the host path could recurse into collection).
func (s *Scheme) flushPackGC(pl flash.PlaneID, issue float64) (float64, error) {
	subs := s.takeBuffer()
	ppn, err := s.Al.AllocGCPage(pl)
	if err != nil {
		return issue, err
	}
	return s.installPack(ppn, subs, issue, ftl.OpGC)
}

// takeBuffer detaches the current pack buffer, leaving a pooled empty one in
// its place; installPack returns the detached slice to the pool once the
// mappings are installed.
func (s *Scheme) takeBuffer() []int64 {
	subs := s.bufList
	if n := len(s.subsPool); n > 0 {
		s.bufList, s.subsPool = s.subsPool[n-1][:0], s.subsPool[:n-1]
	} else {
		s.bufList = make([]int64, 0, s.subPerPg)
	}
	return subs
}

// buffered reports whether a sub-page is staged in the pack buffer. The
// buffer holds at most subPerPg entries, so a linear scan beats a map.
func (s *Scheme) buffered(sub int64) bool {
	for _, b := range s.bufList {
		if b == sub {
			return true
		}
	}
	return false
}

func (s *Scheme) installPack(ppn flash.PPN, subs []int64, issue float64, class ftl.OpClass) (float64, error) {
	frac := float64(len(subs)) / float64(s.subPerPg)
	done, err := s.Dev.ProgramScaled(ppn, flash.Tag{Kind: ftl.TagMRSM, Key: -1}, issue, class, frac)
	if err != nil {
		return issue, err
	}
	base := int32(ppn) * int32(s.subPerPg)
	for slot, sub := range subs {
		s.pageOwner[base+int32(slot)] = int32(sub)
		s.subLoc[sub] = base + int32(slot)
	}
	s.pageLive[ppn] = uint8(len(subs))
	s.subsPool = append(s.subsPool, subs)
	return done, nil
}

// salvage is the GC hook: instead of copying a packed page wholesale (which
// would drag dead sub-page slots along forever and fragment the device), the
// live sub-pages are read once and re-staged through the pack buffer, so
// collection compacts at sub-page granularity — the GC-efficiency property
// §2.2 credits MRSM with.
func (s *Scheme) salvage(tag flash.Tag, old flash.PPN, pl flash.PlaneID, now float64) (bool, error) {
	if tag.Kind != ftl.TagMRSM {
		return false, nil
	}
	if s.pageLive[old] == 0 {
		panic("mrsm: GC salvaging a packed page the scheme does not own")
	}
	if _, err := s.Dev.Read(old, now, ftl.OpGC); err != nil {
		return false, err
	}
	// Snapshot the slot owners before invalidating: invalidateSub clears
	// census slots as it goes, and a nested GC flush may repopulate the
	// page's segment. salvage never nests (the GC allocation path cannot
	// trigger another collection), so one scratch buffer suffices.
	base := int64(old) * int64(s.subPerPg)
	owners := append(s.ownersBuf[:0], s.pageOwner[base:base+int64(s.subPerPg)]...)
	s.ownersBuf = owners
	for _, sub := range owners {
		if sub == unmapped {
			continue
		}
		if err := s.invalidateSub(int64(sub)); err != nil {
			return false, err
		}
		s.bufList = append(s.bufList, int64(sub))
		if len(s.bufList) == s.subPerPg {
			if _, err := s.flushPackGC(pl, now); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// subRange returns the half-open logical sub-page range a request touches,
// plus whether the first/last sub-pages are only partially covered.
func (s *Scheme) subRange(r trace.Request) (first, last int64, firstPartial, lastPartial bool) {
	first = r.Offset / int64(s.subSec)
	last = (r.End() - 1) / int64(s.subSec)
	firstPartial = r.Offset%int64(s.subSec) != 0
	lastPartial = r.End()%int64(s.subSec) != 0
	if first == last {
		p := firstPartial || lastPartial
		firstPartial, lastPartial = p, p
	}
	return
}

// Write implements ftl.Scheme: each touched sub-page is staged into the pack
// buffer; partially covered sub-pages with existing flash data read their
// old page first; superseded flash slots are invalidated; a full buffer
// programs one packed page.
func (s *Scheme) Write(r trace.Request, now float64) (float64, error) {
	var run nodeRun
	return s.write(r, now, &run)
}

// write is Write with the request's node run; nil looks every node up.
func (s *Scheme) write(r trace.Request, now float64, run *nodeRun) (float64, error) {
	if err := s.CheckRequest(r); err != nil {
		return now, err
	}
	join := clock.NewJoin(now)
	var mapDelay float64
	issue := now
	readPages := s.ppnScratch[:0] // distinct RMW-source pages, read once each

	first, last, firstPartial, lastPartial := s.subRange(r)
	for sub := first; sub <= last; sub++ {
		d, _, err := s.touchEntry(sub, run, true, now)
		if err != nil {
			return now, err
		}
		mapDelay += d
		partial := (sub == first && firstPartial) || (sub == last && lastPartial)
		if partial {
			// Assemble the new sub-page from the old copy if one exists on
			// flash (buffered copies merge in RAM for free).
			if loc := s.subLoc[sub]; loc != unmapped {
				ppn := flash.PPN(loc / int32(s.subPerPg))
				seen := false
				for _, p := range readPages {
					if p == ppn {
						seen = true
						break
					}
				}
				if !seen {
					readPages = append(readPages, ppn)
					s.ppnScratch = readPages
					rdone, err := s.Dev.Read(ppn, now, ftl.OpData)
					if err != nil {
						return now, err
					}
					if rdone > issue {
						issue = rdone
					}
				}
			}
		}
		// Stage into the pack buffer.
		if s.buffered(sub) {
			continue // overwrite in RAM
		}
		if err := s.invalidateSub(sub); err != nil {
			return now, err
		}
		s.bufList = append(s.bufList, sub)
		if len(s.bufList) == s.subPerPg {
			done, err := s.flushPack(issue)
			if err != nil {
				return now, err
			}
			join.Add(done)
		}
	}
	// A write request completes only when its data is durable: flush the
	// ragged tail as a partially filled packed page. The unfilled slots are
	// wasted space — the space amplification that makes MRSM's flash-write
	// and erase counts the worst of the three schemes (Figs 10a, 11) even
	// though its write latency beats the RMW-bound baseline (Fig 9b).
	if len(s.bufList) > 0 {
		done, err := s.flushPack(issue)
		if err != nil {
			return now, err
		}
		join.Add(done)
	}
	join.AddDelay(mapDelay)
	return join.Done(), nil
}

// Read implements ftl.Scheme: each touched sub-page resolves through the
// (cached, tree-indexed) mapping; distinct physical pages are read once;
// buffered or unwritten sub-pages cost no flash work.
func (s *Scheme) Read(r trace.Request, now float64) (float64, error) {
	var run nodeRun
	return s.read(r, now, &run)
}

// read is Read with the request's node run; nil looks every node up.
func (s *Scheme) read(r trace.Request, now float64, run *nodeRun) (float64, error) {
	if err := s.CheckRequest(r); err != nil {
		return now, err
	}
	join := clock.NewJoin(now)
	var mapDelay float64

	// Resolve every mapping entry first: a cache miss can flush a dirty
	// translation page, whose allocation can trigger GC, which relocates
	// data pages — so physical locations are only read after the last
	// mapping touch.
	first, last, _, _ := s.subRange(r)
	ready := now
	for sub := first; sub <= last; sub++ {
		d, rdy, err := s.touchEntry(sub, run, false, now)
		if err != nil {
			return now, err
		}
		mapDelay += d
		if rdy > ready {
			ready = rdy
		}
	}
	// Distinct physical pages, ascending: sorted insertion into the scratch
	// slice reproduces the read order of the former map-and-sort without
	// allocating. A request touches at most a handful of pages.
	ppns := s.ppnScratch[:0]
	for sub := first; sub <= last; sub++ {
		if s.buffered(sub) {
			continue
		}
		if loc := s.subLoc[sub]; loc != unmapped {
			ppn := flash.PPN(loc / int32(s.subPerPg))
			i := len(ppns)
			for i > 0 && ppns[i-1] > ppn {
				i--
			}
			if i == 0 || ppns[i-1] != ppn {
				ppns = append(ppns, 0)
				copy(ppns[i+1:], ppns[i:])
				ppns[i] = ppn
			}
		}
	}
	s.ppnScratch = ppns
	for _, ppn := range ppns {
		done, err := s.Dev.Read(ppn, ready, ftl.OpData)
		if err != nil {
			return now, err
		}
		join.Add(done)
	}
	join.AddDelay(mapDelay)
	return join.Done(), nil
}

var _ ftl.Scheme = (*Scheme)(nil)
