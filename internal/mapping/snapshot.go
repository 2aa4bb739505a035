package mapping

import (
	"fmt"
	"slices"
	"unsafe"

	"across/internal/flash"
	"across/internal/snapshot"
)

// SnapshotState appends the full page mapping table as parallel PPN and
// AIdx columns, widened to the format's 64- and 32-bit columns; an AIdx
// column that was never allocated is written as all NoAIdx.
func (t *PMT) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("pmt")
	snapshot.I64Column(enc, t.ppn)
	enc.Column(len(t.ppn), 4, func(dst []byte, first int) {
		for i := range len(dst) / 4 {
			snapshot.PutI32(dst, i, t.AIdxOf(int64(first+i)))
		}
	})
	return nil
}

// RestoreState reads state written by SnapshotState into a PMT constructed
// for the same logical-page count, narrowing as it goes: a PPN the 32-bit
// column cannot hold is refused as snapshot.ErrCorrupt.
func (t *PMT) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("pmt")
	dec.Column(8, len(t.ppn), func(src []byte, first int) error {
		for i := range len(src) / 8 {
			p := snapshot.I64(src, i)
			if int64(int32(p)) != p {
				return fmt.Errorf("%w: PMT entry %d holds PPN %d, beyond the 32-bit table", snapshot.ErrCorrupt, first+i, p)
			}
			t.ppn[first+i] = int32(p)
		}
		return nil
	})
	dec.Column(4, len(t.ppn), func(src []byte, first int) error {
		for i := range len(src) / 4 {
			t.SetAIdx(int64(first+i), snapshot.I32(src, i))
		}
		return nil
	})
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
