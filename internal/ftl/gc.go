package ftl

import (
	"fmt"

	"across/internal/flash"
	"across/internal/obs"
)

// SetReferenceVictimScan switches victim selection to the retained
// O(blocks-per-plane) reference scan instead of the flash array's
// incrementally maintained victim index. Both must pick identical victim
// sequences — the differential tests replay workloads under both and
// assert bit-identical results; the reference scan exists only for that
// cross-check.
func (a *Allocator) SetReferenceVictimScan(on bool) { a.refScan = on }

// pickVictim selects the greedy collection victim among the plane's full,
// non-active blocks. It returns -1 when no block would yield net free
// space. The victim comes from the array's per-plane valid-count index in
// O(1) amortised; pickVictimScan is the behaviourally identical reference.
func (a *Allocator) pickVictim(pl flash.PlaneID) flash.BlockID {
	st := &a.planes[pl]
	if a.refScan {
		return a.pickVictimScan(pl)
	}
	return a.dev.Array.GreedyVictim(pl, st.active, st.gcActive)
}

// pickVictimScan is the reference victim selection: a linear scan over the
// plane's blocks. It defines the semantics the indexed path must preserve:
// fewest valid pages, lowest block id on ties.
func (a *Allocator) pickVictimScan(pl flash.PlaneID) flash.BlockID {
	geo := a.dev.Array.Geo
	st := &a.planes[pl]
	lo, hi := geo.BlocksOfPlane(pl)
	best := flash.BlockID(-1)
	bestValid := geo.PagesPerBlock // exclusive upper bound: all-valid gains nothing
	for b := lo; b < hi; b++ {
		if b == st.active || b == st.gcActive {
			continue
		}
		if a.dev.Array.WritePtr(b) != geo.PagesPerBlock {
			continue // not fully written; erasing it would waste free pages
		}
		if v := a.dev.Array.ValidCount(b); v < bestValid {
			best, bestValid = b, v
			if v == 0 {
				break
			}
		}
	}
	return best
}

// collect reclaims space in one plane until it is back above the GC
// threshold or no victim can make progress. Valid pages are migrated into
// the plane's GC-destination block; their owners are repointed through the
// migration callback; finally the victim is erased and returned to the free
// pool. All flash work is charged to the plane's chip timeline at time now,
// so host operations issued afterwards queue behind the collection — the
// foreground-GC latency effect the paper's erase/latency numbers rest on.
func (a *Allocator) collect(pl flash.PlaneID, now float64) error {
	st := &a.planes[pl]
	trc := a.dev.Tracer()
	victims, migrated := 0, 0
	for st.freePages <= a.threshold || len(st.freeBlocks) <= 1 {
		victim := a.pickVictim(pl)
		if victim < 0 {
			// Nothing reclaimable; allocation may continue into the
			// remaining free pages and fail later if truly exhausted.
			a.emitGCSpan(trc, pl, victims, migrated, now)
			return nil
		}
		a.dev.Count.GCInvocations++
		victims++
		if a.gcVictims != nil {
			a.gcVictims(pl, victim)
		}
		if trc != nil {
			trc.GCVictim(int(pl), int64(victim), a.dev.Array.ValidCount(victim), now)
		}
		a.gcScratch = a.dev.Array.AppendValidPages(a.gcScratch[:0], victim)
		migrated += len(a.gcScratch)
		for j, old := range a.gcScratch {
			if a.prefetch != nil && j+gcAhead < len(a.gcScratch) {
				next := a.gcScratch[j+gcAhead]
				a.prefetch(a.dev.Array.TagOf(next), next)
			}
			tag := a.dev.Array.TagOf(old)
			if a.salvage != nil {
				handled, err := a.salvage(tag, old, pl, now)
				if err != nil {
					return fmt.Errorf("ftl: gc salvage: %w", err)
				}
				if handled {
					continue
				}
			}
			rdone, err := a.dev.Read(old, now, OpGC)
			if err != nil {
				return fmt.Errorf("ftl: gc read: %w", err)
			}
			dst, err := a.AllocGCPage(pl)
			if err != nil {
				return fmt.Errorf("ftl: gc destination: %w", err)
			}
			if _, err := a.dev.Program(dst, tag, rdone, OpGC); err != nil {
				return fmt.Errorf("ftl: gc program: %w", err)
			}
			if a.onMigrate == nil {
				return fmt.Errorf("ftl: gc migration of %v with no migrate callback", tag)
			}
			a.onMigrate(tag, old, dst)
			if err := a.dev.Invalidate(old); err != nil {
				return fmt.Errorf("ftl: gc invalidate: %w", err)
			}
		}
		if _, err := a.dev.Erase(victim, now); err != nil {
			return fmt.Errorf("ftl: gc erase: %w", err)
		}
		a.NoteErased(victim)
	}
	a.emitGCSpan(trc, pl, victims, migrated, now)
	return nil
}

// emitGCSpan reports one completed collection burst to the tracer. The span
// runs from the triggering allocation to the chip's busy horizon, which is
// where the erase of the last victim lands — the window during which host
// operations on that chip queue behind GC. A plain pre-return helper rather
// than a defer: a deferred closure would capture locals and allocate, which
// the no-op-tracer hot path must not.
func (a *Allocator) emitGCSpan(trc obs.Tracer, pl flash.PlaneID, victims, migrated int, start float64) {
	if trc == nil || victims == 0 {
		return
	}
	chip := int(a.dev.Array.Geo.ChipOfPlane(pl))
	trc.GCSpan(int(pl), victims, migrated, start, a.dev.Sched.BusyUntil(chip))
}
