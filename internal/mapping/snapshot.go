package mapping

import (
	"fmt"
	"slices"
	"unsafe"

	"across/internal/flash"
	"across/internal/snapshot"
)

// SnapshotState appends the full page mapping table as parallel PPN and
// AIdx columns, widened to the format's 64- and 32-bit slabs; an AIdx
// column that was never allocated is written as all NoAIdx.
func (t *PMT) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("pmt")
	ppns := enc.I64Slab(len(t.ppn))
	for i, p := range t.ppn {
		ppns.Set(i, int64(p))
	}
	aidx := enc.I32Slab(len(t.ppn))
	for i := range t.ppn {
		aidx.Set(i, t.AIdxOf(int64(i)))
	}
	return nil
}

// RestoreState reads state written by SnapshotState into a PMT constructed
// for the same logical-page count, narrowing as it goes: a PPN the 32-bit
// column cannot hold is refused as snapshot.ErrCorrupt.
func (t *PMT) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("pmt")
	ppns := dec.I64View()
	aidx := dec.I32View()
	if err := dec.Err(); err != nil {
		return err
	}
	if ppns.Len() != len(t.ppn) || aidx.Len() != len(t.ppn) {
		return fmt.Errorf("mapping: snapshot PMT has %d/%d entries, receiver has %d", ppns.Len(), aidx.Len(), len(t.ppn))
	}
	for i := range t.ppn {
		p := ppns.At(i)
		if int64(int32(p)) != p {
			return fmt.Errorf("%w: PMT entry %d holds PPN %d, beyond the 32-bit table", snapshot.ErrCorrupt, i, p)
		}
		t.ppn[i] = int32(p)
		t.SetAIdx(int64(i), aidx.At(i))
	}
	return nil
}

// SnapshotState appends the across-page mapping table: the entry pool as
// parallel columns, the in-use bitmap, the free list in exact order (indices
// are recycled pop-from-end, so order is observable), and the live/peak
// counters.
func (a *AMT) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("amt")
	n := len(a.entries)
	lpns := enc.I64Slab(n)
	for i := range a.entries {
		lpns.Set(i, a.entries[i].LPN)
	}
	offs := enc.I32Slab(n)
	for i := range a.entries {
		offs.Set(i, a.entries[i].Off)
	}
	sizes := enc.I32Slab(n)
	for i := range a.entries {
		sizes.Set(i, a.entries[i].Size)
	}
	appns := enc.I64Slab(n)
	for i := range a.entries {
		appns.Set(i, int64(a.entries[i].APPN))
	}
	inUse := enc.ByteSlab(n)
	for i, u := range a.inUse {
		if u {
			inUse[i] = 1
		} else {
			inUse[i] = 0
		}
	}
	enc.I32s(a.free)
	enc.I64(int64(a.live))
	enc.I64(int64(a.peak))
	return nil
}

// RestoreState reads state written by SnapshotState, rebuilding the entry
// pool (the AMT grows by appending, so a fresh receiver starts empty).
func (a *AMT) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("amt")
	lpns := dec.I64View()
	offs := dec.I32View()
	sizes := dec.I32View()
	appns := dec.I64View()
	inUse := dec.BytesView()
	free := dec.I32s()
	live := dec.I64()
	peak := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	n := lpns.Len()
	if offs.Len() != n || sizes.Len() != n || appns.Len() != n || len(inUse) != n {
		return fmt.Errorf("mapping: snapshot AMT columns sized %d/%d/%d/%d/%d", n, offs.Len(), sizes.Len(), appns.Len(), len(inUse))
	}
	liveCount := 0
	for i, u := range inUse {
		if u > 1 {
			return fmt.Errorf("mapping: snapshot AMT in-use byte %d is %d", i, u)
		}
		if u == 1 {
			liveCount++
		}
	}
	if int64(liveCount) != live || live > peak || int64(len(free))+live != int64(n) {
		return fmt.Errorf("mapping: snapshot AMT accounting inconsistent (live %d, counted %d, peak %d, free %d, slots %d)",
			live, liveCount, peak, len(free), n)
	}
	for _, f := range free {
		if f < 0 || int(f) >= n || inUse[f] == 1 {
			return fmt.Errorf("mapping: snapshot AMT free index %d invalid", f)
		}
	}
	a.entries = make([]AMTEntry, n)
	a.inUse = make([]bool, n)
	for i := range a.entries {
		a.entries[i] = AMTEntry{LPN: lpns.At(i), Off: offs.At(i), Size: sizes.At(i), APPN: flash.PPN(appns.At(i))}
		a.inUse[i] = inUse[i] == 1
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
