package ftl

import (
	"errors"
	"fmt"

	"across/internal/flash"
)

// ErrOutOfSpace is returned when allocation needs a page and garbage
// collection cannot reclaim one (the logical working set exceeds what
// over-provisioning allows).
var ErrOutOfSpace = errors.New("ftl: out of flash space (GC cannot reclaim)")

// MigrateFunc is invoked by GC after it has copied a valid page, so the
// owning mapping structure can repoint itself from old to new. The tag is
// the OOB metadata the page was programmed with.
type MigrateFunc func(tag flash.Tag, old, new flash.PPN)

// SalvageFunc lets a scheme reclaim a victim page's live contents itself
// instead of the default whole-page copy — MRSM uses it to repack live
// sub-page slots densely (dropping dead slots) during collection. It must
// leave the page invalid when it reports handled=true. Flash work it issues
// should use the GC allocation path (AllocGCPage) and OpGC class.
type SalvageFunc func(tag flash.Tag, old flash.PPN, pl flash.PlaneID, now float64) (handled bool, err error)

// PrefetchFunc is the GC look-ahead hook: collect calls it with the tag and
// PPN of the victim page it will move gcAhead pages from now, so the scheme
// can hint the mapping entries that page's migration or salvage will load.
// It must only read: a hint may change how long a later load waits, never
// what it finds.
type PrefetchFunc func(tag flash.Tag, ppn flash.PPN)

// gcAhead is how many victim pages ahead of the one being moved collect
// hints: far enough that the hinted lines arrive before the page's turn,
// near enough that they are still cached when it comes.
const gcAhead = 4

// planeState is the per-plane allocation domain.
type planeState struct {
	freeBlocks []flash.BlockID // erased blocks, used as a stack
	active     flash.BlockID   // current host-write block (-1 if none)
	gcActive   flash.BlockID   // current GC-destination block (-1 if none)
	freePages  int64           // programmable pages across the plane
}

// Allocator hands out physical pages using dynamic page allocation: host
// writes stripe round-robin across planes (and therefore across channels),
// each plane programs one active block sequentially, and a greedy garbage
// collector reclaims space per plane when its free fraction drops below the
// configured threshold — the default SSDsim policy the paper builds on.
type Allocator struct {
	dev        *Device
	planes     []planeState
	order      []flash.PlaneID // round-robin order, striped across chips
	rr         int
	pagesPlane int64
	threshold  int64 // GC trigger in pages
	debt       int64 // GCDebtPages' running total; -1 until it is first asked for
	onMigrate  MigrateFunc
	salvage    SalvageFunc                                     // optional scheme-driven reclamation
	prefetch   PrefetchFunc                                    // optional GC look-ahead hint
	refScan    bool                                            // use the reference victim scan instead of the index
	gcScratch  []flash.PPN                                     // reused per-victim valid-page list (no steady-state allocs)
	gcVictims  func(plane flash.PlaneID, victim flash.BlockID) // test hook, may be nil
}

// NewAllocator prepares per-plane free lists over a fresh device.
func NewAllocator(dev *Device, onMigrate MigrateFunc) *Allocator {
	geo := dev.Array.Geo
	a := &Allocator{
		dev:        dev,
		planes:     make([]planeState, geo.Planes),
		pagesPlane: int64(geo.BlocksPerPlane) * int64(geo.PagesPerBlock),
		debt:       -1,
		onMigrate:  onMigrate,
	}
	a.threshold = int64(float64(a.pagesPlane) * dev.Conf.GCThreshold)
	for pl := range a.planes {
		lo, hi := geo.BlocksOfPlane(flash.PlaneID(pl))
		st := &a.planes[pl]
		st.active, st.gcActive = -1, -1
		st.freePages = a.pagesPlane
		// Push in reverse so block lo is popped first (deterministic).
		st.freeBlocks = make([]flash.BlockID, 0, hi-lo)
		for b := hi - 1; b >= lo; b-- {
			st.freeBlocks = append(st.freeBlocks, b)
		}
	}
	// Stripe consecutive allocations across chips: order planes by their
	// index within the chip first, then by chip. Consecutive pages of a
	// multi-page request then land on different chips and proceed in
	// parallel, which is the point of dynamic allocation.
	planesPerChip := geo.Planes / geo.Chips
	for within := 0; within < planesPerChip; within++ {
		for chip := 0; chip < geo.Chips; chip++ {
			a.order = append(a.order, flash.PlaneID(chip*planesPerChip+within))
		}
	}
	return a
}

// SetMigrate installs the GC migration callback (schemes call it once their
// mapping structures exist).
func (a *Allocator) SetMigrate(f MigrateFunc) { a.onMigrate = f }

// SetSalvage installs the optional scheme-driven reclamation hook.
func (a *Allocator) SetSalvage(f SalvageFunc) { a.salvage = f }

// SetPrefetch installs the optional GC look-ahead hook.
func (a *Allocator) SetPrefetch(f PrefetchFunc) { a.prefetch = f }

// SetGCVictimHook registers an observer called with every GC victim as it is
// chosen (differential tests record the selection sequence). Nil removes it.
func (a *Allocator) SetGCVictimHook(f func(plane flash.PlaneID, victim flash.BlockID)) {
	a.gcVictims = f
}

// FreePages returns the programmable pages remaining in a plane.
func (a *Allocator) FreePages(pl flash.PlaneID) int64 { return a.planes[pl].freePages }

// GCDebtPages sums, over all planes, how far each plane's free-page count
// sits below its GC trigger threshold — the reclamation backlog the metrics
// sampler reports as a gauge. Zero means every plane is above threshold.
//
// The first call sums the planes; pageFrom and NoteErased keep the total
// current after it. A new allocator's total is unknown, which is the state
// RestoreState and CopyState fill and RecoverAllocator rebuilds: each writes
// free-page counts directly, and only ever into a new allocator.
func (a *Allocator) GCDebtPages() int64 {
	if a.debt < 0 {
		a.debt = 0
		for i := range a.planes {
			a.debt += a.planeDebt(a.planes[i].freePages)
		}
	}
	return a.debt
}

// planeDebt is how far a plane with free pages sits below the GC trigger.
func (a *Allocator) planeDebt(free int64) int64 { return max(a.threshold-free, 0) }

// TotalFreePages sums free pages over the device.
func (a *Allocator) TotalFreePages() int64 {
	var n int64
	for i := range a.planes {
		n += a.planes[i].freePages
	}
	return n
}

// pageFrom takes the next page of the given active block, refreshing the
// block from the free list when exhausted. gc selects the host or GC
// cursor; the host cursor keeps one erased block in reserve so collection
// always has a destination, which is what makes GC deadlock-free.
func (a *Allocator) pageFrom(pl flash.PlaneID, gc bool) (flash.PPN, error) {
	st := &a.planes[pl]
	cur := &st.active
	reserve := 1
	if gc {
		cur = &st.gcActive
		reserve = 0
	}
	geo := a.dev.Array.Geo
	if *cur < 0 || a.dev.Array.FreeInBlock(*cur) == 0 {
		if len(st.freeBlocks) <= reserve {
			return flash.NilPPN, fmt.Errorf("%w: plane %d has %d free blocks (reserve %d)",
				ErrOutOfSpace, pl, len(st.freeBlocks), reserve)
		}
		top := len(st.freeBlocks) - 1 // pop the free stack
		*cur = st.freeBlocks[top]
		st.freeBlocks = st.freeBlocks[:top]
	}
	ppn := geo.FirstPage(*cur) + flash.PPN(a.dev.Array.WritePtr(*cur))
	st.freePages--
	if a.debt >= 0 && st.freePages < a.threshold {
		a.debt++
	}
	return ppn, nil
}

// AllocPage reserves the next host-write page, running garbage collection
// first if the target plane is below its free-space threshold. The page is
// reserved, not yet programmed; the caller must program it immediately (the
// array enforces in-order programming, so interleaving allocations with
// deferred programs within one plane is a bug).
//
// The returned time is when the reservation is usable: if GC ran, it equals
// now (GC latency surfaces through the chip timeline, delaying the
// subsequent program exactly as a real foreground GC would).
func (a *Allocator) AllocPage(now float64) (flash.PPN, error) {
	pl := a.order[a.rr]
	a.rr = (a.rr + 1) % len(a.order)
	st := &a.planes[pl]
	needsBlock := st.active < 0 || a.dev.Array.FreeInBlock(st.active) == 0
	if st.freePages <= a.threshold || (needsBlock && len(st.freeBlocks) <= 1) {
		if err := a.collect(pl, now); err != nil {
			return flash.NilPPN, err
		}
	}
	return a.pageFrom(pl, false)
}

// AllocGCPage reserves a migration-destination page within a specific plane.
func (a *Allocator) AllocGCPage(pl flash.PlaneID) (flash.PPN, error) {
	return a.pageFrom(pl, true)
}

// NoteErased returns a block to its plane's free pool after an erase.
func (a *Allocator) NoteErased(b flash.BlockID) {
	pl := a.dev.Array.Geo.PlaneOfBlock(b)
	st := &a.planes[pl]
	st.freeBlocks = append(st.freeBlocks, b)
	before := st.freePages
	st.freePages += int64(a.dev.Array.Geo.PagesPerBlock)
	if a.debt >= 0 {
		a.debt += a.planeDebt(st.freePages) - a.planeDebt(before)
	}
}
