package check

import (
	"fmt"
	"math/bits"

	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/trace"
)

// Checker verifies one scheme instance over its device. Install it on a
// sim.Runner (EnableChecks) to have the engine drive it during replays, or
// drive it directly from tests: BeginReplay once, OnWrite/OnRead per
// request, Finish at the end. A Checker is observation only — it never
// mutates scheme or device state — so a checked replay produces a
// bit-identical Result to an unchecked one.
type Checker struct {
	aud  Auditable
	res  SectorResolver // nil unless Options.Shadow
	al   *ftl.Allocator // nil when the scheme exposes none
	dev  *ftl.Device
	opts Options

	logicalSectors int64

	// written is the shadow model's liveness bitset: one bit per logical
	// sector, set when the sector has (or had at BeginReplay) a resolvable
	// source. Liveness is monotone — the device has no discard — so a set
	// bit that stops resolving is a lost write.
	written []uint64

	// owned is the ownership sweep's scratch bitset over physical pages,
	// reused across audits. claims holds the sweep's one callback, built
	// once so an audit allocates nothing.
	owned  []uint64
	claims []ftl.Claim

	// prevWP/prevEC snapshot per-block write pointers and erase counters at
	// the previous audit, proving write-pointer monotonicity: a pointer may
	// only move backwards if the block was erased in between.
	prevWP []int32
	prevEC []int64

	// Replay-start totals for the attribution identities: everything the
	// array does during a measured phase must be visible in the Device's
	// attributed counters.
	basePrograms, baseReads, baseErases int64
	began                               bool

	reqs         int64
	audits       int64
	sectorChecks int64
}

// New builds a Checker for the scheme. The scheme must implement Auditable;
// with opts.Shadow it must also implement SectorResolver. Every scheme of the
// repository is checkable, and one that is not is refused here, not
// mid-replay.
func New(s ftl.Scheme, opts Options) (*Checker, error) {
	aud, ok := s.(Auditable)
	if !ok {
		return nil, fmt.Errorf("check: scheme %s does not implement Auditable", s.Name())
	}
	c := &Checker{
		aud:            aud,
		dev:            s.Device(),
		opts:           opts,
		logicalSectors: s.Device().Conf.LogicalSectors(),
	}
	c.claims = []ftl.Claim{c.ownershipSweep()}
	if a, ok := s.(interface{ Allocator() *ftl.Allocator }); ok {
		c.al = a.Allocator()
	}
	if opts.Shadow {
		res, ok := s.(SectorResolver)
		if !ok {
			return nil, fmt.Errorf("check: scheme %s does not implement SectorResolver", s.Name())
		}
		c.res = res
	}
	return c, nil
}

// Audits returns how many device-wide audits have run.
func (c *Checker) Audits() int64 { return c.audits }

// SectorChecks returns how many sectors the shadow model has verified: every
// sector of each write and every written sector of each read, though one
// verification covers a whole run of sectors that share a source.
func (c *Checker) SectorChecks() int64 { return c.sectorChecks }

// nextWritten returns the first written sector in [sec, end), or end; end
// must not pass LogicalSectors.
func (c *Checker) nextWritten(sec, end int64) int64 {
	for sec < end {
		if w := c.written[sec>>6] >> uint(sec&63); w != 0 {
			return min(sec+int64(bits.TrailingZeros64(w)), end)
		}
		sec = (sec | 63) + 1
	}
	return end
}

// countWritten returns how many sectors of [start, end) are written; end
// must not pass LogicalSectors.
func (c *Checker) countWritten(start, end int64) int64 {
	var n int
	for start < end {
		next := min((start|63)+1, end)
		w := c.written[start>>6] >> uint(start&63)
		if k := next - start; k < 64 {
			w &= 1<<uint(k) - 1
		}
		n += bits.OnesCount64(w)
		start = next
	}
	return int64(n)
}

// setWrittenRun marks sectors [start, end) written, a word at a time. The
// part of a run outside the device is dropped: a scheme's last logical page
// may reach past LogicalSectors.
func (c *Checker) setWrittenRun(start, end int64) {
	start, end = max(start, 0), min(end, c.logicalSectors)
	if start >= end {
		return
	}
	first, last := start>>6, (end-1)>>6
	head := ^uint64(0) << uint(start&63)
	tail := ^uint64(0) >> uint(63-(end-1)&63)
	if first == last {
		c.written[first] |= head & tail
		return
	}
	c.written[first] |= head
	for w := first + 1; w < last; w++ {
		c.written[w] = ^uint64(0)
	}
	c.written[last] |= tail
}

// BeginReplay arms the checker for a measured phase. The engine calls it
// right after Device.ResetMeasurement, so the attribution identities compare
// array totals against freshly zeroed counters. The shadow bitset is seeded
// from the scheme's current resolution, enumerated in runs by VisitWritten —
// aged or recovered state counts as written — which makes liveness checkable
// without having observed the warm-up. The error is always nil.
func (c *Checker) BeginReplay() error {
	arr := c.dev.Array
	c.began = true
	c.basePrograms = arr.TotalPrograms()
	c.baseReads = arr.TotalReads()
	c.baseErases = arr.TotalErases()
	c.reqs = 0

	nb := arr.Geo.TotalBlocks()
	if c.prevWP == nil {
		c.prevWP = make([]int32, nb)
		c.prevEC = make([]int64, nb)
	}
	for b := flash.BlockID(0); int64(b) < nb; b++ {
		c.prevWP[b] = int32(arr.WritePtr(b))
		c.prevEC[b] = arr.EraseCount(b)
	}

	if c.opts.Shadow {
		words := (c.logicalSectors + 63) / 64
		if c.written == nil {
			c.written = make([]uint64, words)
		}
		clear(c.written)
		c.res.VisitWritten(c.setWrittenRun)
	}
	return nil
}

// checkRun verifies the claimed source of the run that starts at the written
// sector sec against the array, and returns the run's end: one resolution
// and one array lookup for every sector that shares the source.
func (c *Checker) checkRun(sec int64) (int64, error) {
	src, end, err := c.res.ResolveRun(sec)
	if err != nil {
		return 0, fmt.Errorf("sector %d: %w", sec, err)
	}
	switch src.Kind {
	case ftl.SrcUnwritten:
		return 0, fmt.Errorf("lost write: sector %d was written but has no source", sec)
	case ftl.SrcBuffered:
		return end, nil
	case ftl.SrcFlash:
		// TagOf answers NilTag for a page that is not valid, so one lookup
		// checks liveness and tag.
		if tag := c.dev.Array.TagOf(src.PPN); tag == flash.NilTag || tag != src.Tag {
			if st := c.dev.Array.State(src.PPN); st != flash.PageValid {
				return 0, fmt.Errorf("dangling source: sector %d resolves to %v page %d", sec, st, src.PPN)
			}
			return 0, fmt.Errorf("misdirected source: sector %d page %d holds tag %+v, owner expects %+v",
				sec, src.PPN, tag, src.Tag)
		}
		return end, nil
	}
	return 0, fmt.Errorf("sector %d: unknown source kind %v", sec, src.Kind)
}

// OnWrite verifies a completed host write: every sector of the request is
// now live and must resolve to a valid, correctly tagged source. A write the
// scheme dropped (or mapped to the wrong page) fails here, on the very
// request that lost it. SectorChecks counts every sector of the request.
func (c *Checker) OnWrite(r trace.Request) error {
	c.reqs++
	if c.opts.Shadow {
		start, stop := r.Offset, r.End()
		c.setWrittenRun(start, stop)
		for sec := start; sec < stop; {
			end, err := c.checkRun(sec)
			if err != nil {
				return fmt.Errorf("check: after write: %w", err)
			}
			end = min(end, stop)
			c.sectorChecks += end - sec
			sec = end
		}
	}
	return c.maybeAudit()
}

// OnRead verifies a completed host read: every previously written sector in
// the range must still resolve. Never-written sectors are unconstrained —
// page-granularity materialisation (baseline RMW, MRSM sub-page staging)
// legitimately gives them a source. A run is verified if it holds a written
// sector, and SectorChecks counts the written sectors.
func (c *Checker) OnRead(r trace.Request) error {
	c.reqs++
	if c.opts.Shadow {
		stop := min(r.End(), c.logicalSectors)
		for sec := c.nextWritten(max(r.Offset, 0), stop); sec < stop; sec = c.nextWritten(sec, stop) {
			end, err := c.checkRun(sec)
			if err != nil {
				return fmt.Errorf("check: after read: %w", err)
			}
			end = min(end, stop)
			c.sectorChecks += c.countWritten(sec, end)
			sec = end
		}
	}
	return c.maybeAudit()
}

func (c *Checker) maybeAudit() error {
	if n := c.opts.AuditEvery; n > 0 && c.reqs%n == 0 {
		return c.Audit()
	}
	return nil
}

// Finish runs the end-of-replay audit.
func (c *Checker) Finish() error { return c.Audit() }

// Audit runs the device-wide invariant sweep. O(physical pages + logical
// pages); callable at any request boundary.
func (c *Checker) Audit() error {
	c.audits++
	arr := c.dev.Array
	geo := &arr.Geo

	// Scheme-internal referential integrity first: it produces the most
	// specific diagnostics. The same walk hands every verified claim to the
	// ownership sweep (ownershipSweep), so no table is walked twice.
	if c.owned == nil {
		c.owned = make([]uint64, (geo.TotalPages()+63)/64)
	}
	clear(c.owned)
	if err := c.aud.AuditMapping(c.claims...); err != nil {
		return fmt.Errorf("check: mapping audit: %w", err)
	}

	// Per-block layout: states partition around the write pointer and the
	// valid-count cache is conserved (BlockCensus reads the block's
	// metadata column eight pages at a time), write pointers move
	// monotonically between audits (modulo erase), and erase counters
	// never decrease.
	ppb := geo.PagesPerBlock
	nb := geo.TotalBlocks()
	var totalValid, eraseSum int64
	for b := flash.BlockID(0); int64(b) < nb; b++ {
		wp := arr.WritePtr(b)
		if wp < 0 || wp > ppb {
			return fmt.Errorf("check: block %d write pointer %d outside [0,%d]", b, wp, ppb)
		}
		valid, bad := arr.BlockCensus(b)
		if bad >= 0 {
			return censusFault(arr, b, bad, wp)
		}
		if valid != arr.ValidCount(b) {
			return fmt.Errorf("check: block %d valid-count %d, counted %d", b, arr.ValidCount(b), valid)
		}
		totalValid += int64(valid)
		ec := arr.EraseCount(b)
		eraseSum += ec
		if c.prevWP != nil {
			if ec < c.prevEC[b] {
				return fmt.Errorf("check: block %d erase count moved backwards (%d -> %d)", b, c.prevEC[b], ec)
			}
			if int32(wp) < c.prevWP[b] && ec == c.prevEC[b] {
				return fmt.Errorf("check: block %d write pointer moved backwards (%d -> %d) without erase",
					b, c.prevWP[b], wp)
			}
			c.prevWP[b] = int32(wp)
			c.prevEC[b] = ec
		}
	}
	if eraseSum != arr.TotalErases() {
		return fmt.Errorf("check: per-block erase counters sum to %d, array total %d", eraseSum, arr.TotalErases())
	}

	// Allocator free-space accounting: the plane's cached free-page count
	// must equal the sum of programmable pages over its blocks. Between
	// requests no reservation is outstanding, so the identity is exact.
	if al := c.al; al != nil {
		for pl := flash.PlaneID(0); int(pl) < geo.Planes; pl++ {
			var free int64
			lo, hi := geo.BlocksOfPlane(pl)
			for b := lo; b < hi; b++ {
				free += int64(arr.FreeInBlock(b))
			}
			if got := al.FreePages(pl); got != free {
				return fmt.Errorf("check: plane %d allocator says %d free pages, blocks hold %d", pl, got, free)
			}
		}
	}

	// Ownership bijection: the sweep found every claimed page valid and
	// claimed once, and the claims must account for every valid page on the
	// device. Together with the per-claim tag checks in AuditMapping this
	// proves mapping↔flash ownership is a bijection — no leaked
	// (unreclaimable) pages, no doubly owned pages.
	var owned int64
	for _, w := range c.owned {
		owned += int64(bits.OnesCount64(w))
	}
	if owned != totalValid {
		return fmt.Errorf("check: %d valid pages on flash, %d owned by mapping structures (leak or double count)",
			totalValid, owned)
	}

	// Attribution identities: during a measured phase, every array
	// operation must be visible in the Device's attributed counters —
	// nothing may program, read or erase behind the accounting that the
	// paper's figures are computed from.
	if c.began {
		if got, want := c.dev.Count.FlashWrites(), arr.TotalPrograms()-c.basePrograms; got != want {
			return fmt.Errorf("check: device counters attribute %d programs, array performed %d", got, want)
		}
		if got, want := c.dev.Count.FlashReads(), arr.TotalReads()-c.baseReads; got != want {
			return fmt.Errorf("check: device counters attribute %d reads, array performed %d", got, want)
		}
		if got, want := c.dev.Count.Erases, arr.TotalErases()-c.baseErases; got != want {
			return fmt.Errorf("check: device counters attribute %d erases, array performed %d", got, want)
		}
	}
	return nil
}

// ownershipSweep returns the Claim every AuditMapping walk hands its
// verified pages to: each claimed page must be on the device, valid, and
// claimed once. The test is one branch; claimFault names what failed.
func (c *Checker) ownershipSweep() ftl.Claim {
	return func(p flash.PPN) error {
		arr := c.dev.Array
		w, bit := uint64(p)>>6, uint64(1)<<uint(p&63)
		if uint64(p) >= uint64(arr.Geo.TotalPages()) || arr.State(p) != flash.PageValid || c.owned[w]&bit != 0 {
			return c.claimFault(p)
		}
		c.owned[w] |= bit
		return nil
	}
}

// claimFault names the rule claimed page p broke.
func (c *Checker) claimFault(p flash.PPN) error {
	arr := c.dev.Array
	if err := arr.Geo.CheckPPN(p); err != nil {
		return fmt.Errorf("ownership: %w", err)
	}
	if st := arr.State(p); st != flash.PageValid {
		return fmt.Errorf("ownership: owned page %d is %v", p, st)
	}
	return fmt.Errorf("ownership: page %d owned twice", p)
}

// censusFault describes the page BlockCensus found breaking the layout of
// block b: a free or stray-bit page below the write pointer, or a page at or
// above it that is not the zero byte.
func censusFault(arr *flash.Array, b flash.BlockID, i, wp int) error {
	st := arr.State(arr.Geo.FirstPage(b) + flash.PPN(i))
	switch {
	case i < wp && st == flash.PageFree:
		return fmt.Errorf("check: block %d page %d free below write pointer %d", b, i, wp)
	case i < wp:
		return fmt.Errorf("check: block %d page %d %v with stray metadata below write pointer %d", b, i, st, wp)
	case st != flash.PageFree:
		return fmt.Errorf("check: block %d page %d %v above write pointer %d", b, i, st, wp)
	}
	return fmt.Errorf("check: block %d free page %d carries stray metadata above write pointer %d", b, i, wp)
}
