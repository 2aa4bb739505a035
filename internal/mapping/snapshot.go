package mapping

import (
	"fmt"
	"slices"
	"unsafe"

	"across/internal/flash"
	"across/internal/snapshot"
)

// SnapshotState appends the full page mapping table as the 32-bit PPN column
// it is held in, then the AIdx column behind a presence byte: present exactly
// when some LPN has an AIdx, whether or not the lazy slice was ever
// allocated, so equal tables write equal bytes.
func (t *PMT) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("pmt")
	enc.I32s(t.ppn)
	hasAIdx := t.hasAIdx()
	enc.Bool(hasAIdx)
	if hasAIdx {
		enc.I32s(t.aidx)
	}
	return nil
}

// hasAIdx reports whether some LPN has an AIdx.
func (t *PMT) hasAIdx() bool {
	return slices.ContainsFunc(t.aidx, func(idx int32) bool { return idx != NoAIdx })
}

// RestoreState reads state written by SnapshotState into a PMT constructed
// for the same logical-page count. An AIdx column that is present and holds
// nothing is refused as snapshot.ErrCorrupt.
func (t *PMT) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("pmt")
	into := func(col []int32) {
		dec.Column(4, len(col), func(src []byte, first int) error {
			for i := range len(src) / 4 {
				col[first+i] = snapshot.I32(src, i)
			}
			return nil
		})
	}
	into(t.ppn)
	if dec.Bool() {
		t.aidx = make([]int32, len(t.ppn))
		into(t.aidx)
		if dec.Err() == nil && !t.hasAIdx() {
			return fmt.Errorf("%w: PMT AIdx column is present and holds nothing", snapshot.ErrCorrupt)
		}
	}
	return dec.Err()
}

// SnapshotState appends the across-page mapping table: the entry pool as
// parallel columns, the in-use bitmap, the free list in exact order (indices
// are recycled pop-from-end, so order is observable), and the live/peak
// counters.
func (a *AMT) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("amt")
	n := len(a.entries)
	enc.Column(n, 8, func(dst []byte, first int) {
		for i := range len(dst) / 8 {
			snapshot.PutI64(dst, i, a.entries[first+i].LPN)
		}
	})
	enc.Column(n, 4, func(dst []byte, first int) {
		for i := range len(dst) / 4 {
			snapshot.PutI32(dst, i, a.entries[first+i].Off)
		}
	})
	enc.Column(n, 4, func(dst []byte, first int) {
		for i := range len(dst) / 4 {
			snapshot.PutI32(dst, i, a.entries[first+i].Size)
		}
	})
	enc.Column(n, 8, func(dst []byte, first int) {
		for i := range len(dst) / 8 {
			snapshot.PutI64(dst, i, int64(a.entries[first+i].APPN))
		}
	})
	enc.Column(n, 1, func(dst []byte, first int) {
		for i := range dst {
			dst[i] = 0
			if a.inUse[first+i] {
				dst[i] = 1
			}
		}
	})
	enc.I32s(a.free)
	enc.I64(int64(a.live))
	enc.I64(int64(a.peak))
	return nil
}

// RestoreState reads state written by SnapshotState, rebuilding the entry
// pool (the AMT grows by appending, so a fresh receiver starts empty): the
// first column grows it as its blocks arrive, never by the count claimed,
// and the others must match it.
func (a *AMT) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("amt")
	a.entries = a.entries[:0]
	n := dec.Column(8, -1, func(src []byte, _ int) error {
		a.entries = slices.Grow(a.entries, len(src)/8)
		for i := range len(src) / 8 {
			a.entries = append(a.entries, AMTEntry{LPN: snapshot.I64(src, i)})
		}
		return nil
	})
	dec.Column(4, n, func(src []byte, first int) error {
		for i := range len(src) / 4 {
			a.entries[first+i].Off = snapshot.I32(src, i)
		}
		return nil
	})
	dec.Column(4, n, func(src []byte, first int) error {
		for i := range len(src) / 4 {
			a.entries[first+i].Size = snapshot.I32(src, i)
		}
		return nil
	})
	dec.Column(8, n, func(src []byte, first int) error {
		for i := range len(src) / 8 {
			a.entries[first+i].APPN = flash.PPN(snapshot.I64(src, i))
		}
		return nil
	})
	a.inUse = make([]bool, n) // n elements have arrived: the count is no longer a claim
	liveCount := 0
	dec.Column(1, n, func(src []byte, first int) error {
		for i, u := range src {
			if u > 1 {
				return fmt.Errorf("mapping: snapshot AMT in-use byte %d is %d", first+i, u)
			}
			a.inUse[first+i] = u == 1
			liveCount += int(u)
		}
		return nil
	})
	free := dec.I32s()
	live := dec.I64()
	peak := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	if int64(liveCount) != live || live > peak || int64(len(free))+live != int64(n) {
		return fmt.Errorf("mapping: snapshot AMT accounting inconsistent (live %d, counted %d, peak %d, free %d, slots %d)",
			live, liveCount, peak, len(free), n)
	}
	for _, f := range free {
		if f < 0 || int(f) >= n || a.inUse[f] {
			return fmt.Errorf("mapping: snapshot AMT free index %d invalid", f)
		}
	}
	a.free = free
	a.live = int(live)
	a.peak = int(peak)
	return nil
}

// CopyState makes the table a copy of src, a PMT of the same length, and
// returns the bytes copied. The lazy AIdx column stays nil when src never
// allocated it.
func (t *PMT) CopyState(src *PMT) int64 {
	n := copy(t.ppn, src.ppn)
	t.aidx = slices.Clone(src.aidx)
	return 4 * int64(n+len(t.aidx))
}

// CopyState makes the table a copy of src and returns the bytes copied.
func (a *AMT) CopyState(src *AMT) int64 {
	a.entries = slices.Clone(src.entries)
	a.inUse = slices.Clone(src.inUse)
	a.free = slices.Clone(src.free)
	a.live, a.peak = src.live, src.peak
	return int64(int(unsafe.Sizeof(AMTEntry{}))*len(a.entries) + len(a.inUse) + 4*len(a.free))
}
