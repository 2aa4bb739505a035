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
// The page columns go out at the width the array holds them — the meta byte,
// a 32-bit key, and aux behind a presence byte — in canonical form: a page
// that is not valid carries NilTag whatever its columns still hold (TagOf's
// answer: no kind bits, NilTag's key, no aux), and the aux column is present
// exactly when some valid page carries a non-zero Aux, whether or not the
// lazy slice was ever allocated.
func (a *Array) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("flash")
	n := len(a.meta)
	// Valid and dead pages interleave at random on an aged device, so the
	// canonical form is masked in by state, not branched on.
	enc.Column(n, 1, func(dst []byte, first int) {
		for i, m := range a.meta[first : first+len(dst)] {
			dst[i] = m & metaKept[m&stateMask]
		}
	})
	enc.Column(n, 4, func(dst []byte, first int) {
		meta := a.meta[first : first+len(dst)/4]
		for i, key := range a.key[first : first+len(meta)] {
			snapshot.PutI32(dst, i, key&keyKept[meta[i]&stateMask]|int32(NilTag.Key)&^keyKept[meta[i]&stateMask])
		}
	})
	hasAux := a.hasAux()
	enc.Bool(hasAux)
	if hasAux {
		enc.Column(n, 8, func(dst []byte, first int) {
			for i := range len(dst) / 8 {
				snapshot.PutI64(dst, i, a.TagOf(PPN(first+i)).Aux)
			}
		})
	}
	enc.I32s(a.writePtr)
	enc.I32s(a.validCount)
	enc.I64s(a.eraseCount)
	enc.I64(a.erases)
	enc.I64(a.programs)
	enc.I64(a.reads)
	return nil
}

// metaKept and keyKept are, per page state, the bits of a page's meta byte
// and of its key that its snapshot keeps: all of them on a valid page, the
// state alone and no key (NilTag's, in its place) on any other.
var (
	metaKept = [4]uint8{PageFree: stateMask, PageValid: 0xFF, PageInvalid: stateMask, 3: stateMask}
	keyKept  = [4]int32{PageValid: -1}
)

// hasAux reports whether some valid page carries a non-zero Aux.
func (a *Array) hasAux() bool {
	for p, aux := range a.aux {
		if aux != 0 && a.State(PPN(p)) == PageValid {
			return true
		}
	}
	return false
}

// RestoreState reads state written by SnapshotState into an array built for
// the same geometry — each column copied block by block from the stream into
// the array, its count held to the geometry and every element checked
// against its range and against the columns that arrived before it — and
// rebuilds the victim index from the restored block metadata. A kind above
// MaxKind, any part of a tag but NilTag's on a page that is not valid, or an
// aux column that is present and holds nothing, is refused as
// snapshot.ErrCorrupt. A receiver whose restore failed is left part-written
// and must be dropped.
func (a *Array) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("flash")
	pages, blocks := len(a.meta), len(a.writePtr)
	dec.Column(1, pages, func(src []byte, first int) error {
		for i, m := range src {
			if m&^metaKept[m&stateMask] == 0 && m&stateMask <= uint8(PageInvalid) && m>>kindShift <= MaxKind {
				continue
			}
			switch st, kind := PageState(m&stateMask), m>>kindShift; {
			case st > PageInvalid:
				return fmt.Errorf("flash: snapshot page %d has invalid state %d", first+i, st)
			default:
				return tagErr(first+i, st, "kind", int64(kind))
			}
		}
		copy(a.meta[first:], src)
		return nil
	})
	dec.Column(4, pages, func(src []byte, first int) error {
		meta := a.meta[first : first+len(src)/4]
		for i := range meta {
			p, key, kept := first+i, snapshot.I32(src, i), keyKept[meta[i]&stateMask]
			if key&^kept != int32(NilTag.Key)&^kept {
				return tagErr(p, PageState(meta[i]&stateMask), "key", int64(key))
			}
			a.key[p] = key & kept // a dead page's key stays a new array's
		}
		return nil
	})
	if dec.Bool() {
		a.aux = make([]int64, pages)
		dec.Column(8, pages, func(src []byte, first int) error {
			for i := range len(src) / 8 {
				p, aux := first+i, snapshot.I64(src, i)
				if st := a.State(PPN(p)); st != PageValid && aux != NilTag.Aux {
					return tagErr(p, st, "aux", aux)
				}
				a.aux[p] = aux
			}
			return nil
		})
		if dec.Err() == nil && !a.hasAux() {
			return fmt.Errorf("%w: flash aux column is present and holds nothing", snapshot.ErrCorrupt)
		}
	}
	ppb := int32(a.Geo.PagesPerBlock)
	dec.Column(4, blocks, func(src []byte, first int) error {
		for i := range len(src) / 4 {
			wp := snapshot.I32(src, i)
			if wp < 0 || wp > ppb {
				return fmt.Errorf("flash: snapshot block %d write pointer %d outside [0,%d]", first+i, wp, ppb)
			}
			a.writePtr[first+i] = wp
		}
		return nil
	})
	dec.Column(4, blocks, func(src []byte, first int) error {
		for i := range len(src) / 4 {
			vc, wp := snapshot.I32(src, i), a.writePtr[first+i]
			if vc < 0 || vc > wp {
				return fmt.Errorf("flash: snapshot block %d valid count %d outside [0,%d]", first+i, vc, wp)
			}
			a.validCount[first+i] = vc
		}
		return nil
	})
	dec.Column(8, blocks, func(src []byte, first int) error {
		for i := range len(src) / 8 {
			if a.eraseCount[first+i] = snapshot.I64(src, i); a.eraseCount[first+i] < 0 {
				return fmt.Errorf("flash: snapshot block %d negative erase count", first+i)
			}
		}
		return nil
	})
	a.erases, a.programs, a.reads = dec.I64(), dec.I64(), dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	a.vidx.init(&a.Geo)
	for b, wp := range a.writePtr {
		if wp == ppb {
			bid := BlockID(b)
			a.vidx.blockFilled(a.Geo.PlaneOfBlock(bid), bid, int(a.validCount[b]))
		}
	}
	return nil
}

// tagErr refuses one column's share of page p's tag: on a valid page a kind
// the meta byte's six bits hold and Program refuses, on any other anything
// but NilTag's.
func tagErr(p int, st PageState, what string, v int64) error {
	if st != PageValid {
		return fmt.Errorf("%w: flash page %d is %v but carries tag %s %d", snapshot.ErrCorrupt, p, st, what, v)
	}
	return fmt.Errorf("%w: %w: ppn %d, tag %s %d", snapshot.ErrCorrupt, ErrTagRange, p, what, v)
}

// CopyState makes the array a copy of src, an array of the same geometry,
// column by column — victim index included, so nothing is rebuilt or
// checked — and returns the bytes copied. The lazy aux column stays nil
// when src never allocated it.
func (a *Array) CopyState(src *Array) int64 {
	n := copy(a.meta, src.meta) + 4*copy(a.key, src.key) +
		4*copy(a.writePtr, src.writePtr) + 4*copy(a.validCount, src.validCount) + 8*copy(a.eraseCount, src.eraseCount) +
		8*copy(a.vidx.buckets, src.vidx.buckets) +
		8*copy(a.vidx.minBucket, src.vidx.minBucket)
	a.aux = slices.Clone(src.aux)
	a.erases, a.programs, a.reads = src.erases, src.programs, src.reads
	return int64(n + 8*len(a.aux))
}
