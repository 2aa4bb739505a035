package flash

import (
	"fmt"
	"slices"

	"across/internal/snapshot"
)

// SnapshotState appends the array's complete mutable state: page states and
// OOB tags, per-block write pointers / valid counts / erase counts, and the
// device-wide operation totals. The victim index is derived state and is
// rebuilt on restore rather than serialised (its lazily advanced minBucket
// lower bound does not affect victim selection, so a rebuilt index is
// selection-equivalent to the live one).
//
// The format predates the packed columns and does not move with them: state
// and kind are byte columns, key and aux 64-bit ones, and a page that is not
// valid carries NilTag whatever its columns still hold — TagOf's answer.
func (a *Array) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("flash")
	n := len(a.meta)
	states := enc.ByteSlab(n)
	for i, m := range a.meta {
		states[i] = m & stateMask
	}
	kinds := enc.ByteSlab(n)
	for i := range kinds {
		kinds[i] = a.TagOf(PPN(i)).Kind
	}
	keys := enc.I64Slab(n)
	for i := 0; i < n; i++ {
		keys.Set(i, a.TagOf(PPN(i)).Key)
	}
	aux := enc.I64Slab(n)
	for i := 0; i < n; i++ {
		aux.Set(i, a.TagOf(PPN(i)).Aux)
	}
	enc.I32s(a.writePtr)
	enc.I32s(a.validCount)
	enc.I64s(a.eraseCount)
	enc.I64(a.erases)
	enc.I64(a.programs)
	enc.I64(a.reads)
	return nil
}

// RestoreState reads state written by SnapshotState into an array built for
// the same geometry — each column narrowed straight from the body into the
// array, validating sizes first and per-page/per-block invariants on the
// way — and rebuilds the victim index from the restored block metadata. A
// tag the packed columns cannot hold, or any tag on a page that is not
// valid, is refused as snapshot.ErrCorrupt. A receiver whose restore failed
// is left part-written and must be dropped.
func (a *Array) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("flash")
	states := dec.BytesView()
	kinds := dec.BytesView()
	keys := dec.I64View()
	aux := dec.I64View()
	writePtr := dec.I32View()
	validCount := dec.I32View()
	eraseCount := dec.I64View()
	erases := dec.I64()
	programs := dec.I64()
	reads := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}

	pages, blocks := int(a.Geo.TotalPages()), int(a.Geo.TotalBlocks())
	if len(states) != pages || len(kinds) != pages || keys.Len() != pages || aux.Len() != pages {
		return fmt.Errorf("flash: snapshot page arrays sized %d/%d/%d/%d, geometry has %d pages",
			len(states), len(kinds), keys.Len(), aux.Len(), pages)
	}
	if writePtr.Len() != blocks || validCount.Len() != blocks || eraseCount.Len() != blocks {
		return fmt.Errorf("flash: snapshot block arrays sized %d/%d/%d, geometry has %d blocks",
			writePtr.Len(), validCount.Len(), eraseCount.Len(), blocks)
	}
	for i, st := range states {
		if PageState(st) > PageInvalid {
			return fmt.Errorf("flash: snapshot page %d has invalid state %d", i, st)
		}
		tag := Tag{Kind: kinds[i], Key: keys.At(i), Aux: aux.At(i)}
		if PageState(st) != PageValid {
			if tag != NilTag {
				return fmt.Errorf("%w: flash page %d is %v but carries tag %+v", snapshot.ErrCorrupt, i, PageState(st), tag)
			}
			a.meta[i] = st
		} else if err := a.setValid(PPN(i), tag); err != nil {
			return fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
		}
	}
	ppb := int32(a.Geo.PagesPerBlock)
	a.vidx.init(&a.Geo)
	for b := range a.writePtr {
		wp, vc, ec := writePtr.At(b), validCount.At(b), eraseCount.At(b)
		if wp < 0 || wp > ppb {
			return fmt.Errorf("flash: snapshot block %d write pointer %d outside [0,%d]", b, wp, ppb)
		}
		if vc < 0 || vc > wp {
			return fmt.Errorf("flash: snapshot block %d valid count %d outside [0,%d]", b, vc, wp)
		}
		if ec < 0 {
			return fmt.Errorf("flash: snapshot block %d negative erase count", b)
		}
		a.writePtr[b], a.validCount[b], a.eraseCount[b] = wp, vc, ec
		if wp == ppb {
			bid := BlockID(b)
			a.vidx.blockFilled(a.Geo.PlaneOfBlock(bid), bid, int(vc))
		}
	}
	a.erases, a.programs, a.reads = erases, programs, reads
	return nil
}

// CopyState makes the array a copy of src, an array of the same geometry,
// column by column — victim index included, so nothing is rebuilt or
// checked — and returns the bytes copied. The lazy aux column stays nil
// when src never allocated it.
func (a *Array) CopyState(src *Array) int64 {
	n := copy(a.meta, src.meta) + 4*copy(a.key, src.key) +
		4*copy(a.writePtr, src.writePtr) + 4*copy(a.validCount, src.validCount) + 8*copy(a.eraseCount, src.eraseCount) +
		8*copy(a.vidx.buckets, src.vidx.buckets) + 8*copy(a.vidx.reclaimable, src.vidx.reclaimable) +
		8*copy(a.vidx.minBucket, src.vidx.minBucket)
	a.aux = slices.Clone(src.aux)
	a.erases, a.programs, a.reads = src.erases, src.programs, src.reads
	return int64(n + 8*len(a.aux))
}
