package ftl

import (
	"fmt"

	"across/internal/flash"
	"across/internal/snapshot"
)

// SnapshotState appends the allocator's mutable state: the round-robin
// cursor and, per plane, the free-block stack in exact order (pop order is
// observable), active and GC-active blocks, and the free-page count. The
// striping order, thresholds and policy knobs are config-derived and the GC
// scratch buffers are unobservable, so none of those are serialised.
func (a *Allocator) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("alloc")
	enc.I64(int64(a.rr))
	enc.I64(int64(len(a.planes)))
	for pl := range a.planes {
		st := &a.planes[pl]
		free := enc.I64Slab(len(st.freeBlocks))
		for i, b := range st.freeBlocks {
			free.Set(i, int64(b))
		}
		enc.I64(int64(st.active))
		enc.I64(int64(st.gcActive))
		enc.I64(st.freePages)
	}
	return nil
}

// RestoreState reads state written by SnapshotState into an allocator built
// over the same geometry.
func (a *Allocator) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("alloc")
	rr := dec.I64()
	planes := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	if planes != int64(len(a.planes)) {
		return fmt.Errorf("ftl: snapshot allocator has %d planes, device has %d", planes, len(a.planes))
	}
	if rr < 0 || rr >= int64(len(a.order)) {
		return fmt.Errorf("ftl: snapshot allocator round-robin cursor %d outside [0,%d)", rr, len(a.order))
	}
	geo := a.dev.Array.Geo
	for pl := range a.planes {
		free := dec.I64View()
		active := dec.I64()
		gcActive := dec.I64()
		freePages := dec.I64()
		if err := dec.Err(); err != nil {
			return err
		}
		lo, hi := geo.BlocksOfPlane(flash.PlaneID(pl))
		st := &a.planes[pl]
		st.freeBlocks = st.freeBlocks[:0]
		for i := 0; i < free.Len(); i++ {
			b := free.At(i)
			if b < int64(lo) || b >= int64(hi) {
				return fmt.Errorf("ftl: snapshot free block %d outside plane %d [%d,%d)", b, pl, lo, hi)
			}
			st.freeBlocks = append(st.freeBlocks, flash.BlockID(b))
		}
		for _, b := range []int64{active, gcActive} {
			if b != -1 && (b < int64(lo) || b >= int64(hi)) {
				return fmt.Errorf("ftl: snapshot active block %d outside plane %d [%d,%d)", b, pl, lo, hi)
			}
		}
		if freePages < 0 || freePages > a.pagesPlane {
			return fmt.Errorf("ftl: snapshot plane %d free pages %d outside [0,%d]", pl, freePages, a.pagesPlane)
		}
		st.active = flash.BlockID(active)
		st.gcActive = flash.BlockID(gcActive)
		st.freePages = freePages
	}
	a.rr = int(rr)
	return nil
}

// SnapshotState appends the materialised translation pages as parallel id
// and location columns in ascending id order, the format's canonical one.
func (m *MapStore) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("mapstore")
	ids := enc.I64Slab(m.resident)
	n := 0
	for id, ppn := range m.loc {
		if flash.PPN(ppn) != flash.NilPPN {
			ids.Set(n, int64(id))
			n++
		}
	}
	ppns := enc.I64Slab(m.resident)
	n = 0
	for _, ppn := range m.loc {
		if flash.PPN(ppn) != flash.NilPPN {
			ppns.Set(n, int64(ppn))
			n++
		}
	}
	return nil
}

// RestoreState reads state written by SnapshotState, refusing a duplicated
// id, an id outside the owner's table and a location outside the device.
func (m *MapStore) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("mapstore")
	ids := dec.I64View()
	ppns := dec.I64View()
	if err := dec.Err(); err != nil {
		return err
	}
	if ids.Len() != ppns.Len() {
		return fmt.Errorf("ftl: snapshot map store columns sized %d/%d", ids.Len(), ppns.Len())
	}
	for i := 0; i < ids.Len(); i++ {
		id, ppn := ids.At(i), flash.PPN(ppns.At(i))
		if id < 0 || id >= int64(len(m.loc)) {
			return fmt.Errorf("%w: map store page %d outside [0,%d)", snapshot.ErrCorrupt, id, len(m.loc))
		}
		if flash.PPN(m.loc[id]) != flash.NilPPN {
			return fmt.Errorf("ftl: snapshot map store page %d duplicated", id)
		}
		if err := m.dev.Array.Geo.CheckPPN(ppn); err != nil {
			return fmt.Errorf("%w: map store page %d: %v", snapshot.ErrCorrupt, id, err)
		}
		m.loc[id] = int32(ppn)
	}
	m.resident = ids.Len()
	return nil
}

// SnapshotBase appends the state shared by every scheme: chip and bus
// timelines, operation counters, the flash array, the allocator and the
// page mapping table. Schemes embed Base and call this first from their
// SnapshotState.
func (b *Base) SnapshotBase(enc *snapshot.Encoder) error {
	enc.Tag("base")
	if err := b.Dev.Sched.SnapshotState(enc); err != nil {
		return err
	}
	if err := b.Dev.Bus.SnapshotState(enc); err != nil {
		return err
	}
	c := &b.Dev.Count
	enc.Tag("counters")
	enc.I64(c.DataReads)
	enc.I64(c.DataWrites)
	enc.I64(c.MapReads)
	enc.I64(c.MapWrites)
	enc.I64(c.GCReads)
	enc.I64(c.GCWrites)
	enc.I64(c.Erases)
	enc.I64(c.DRAMAccesses)
	enc.I64(c.GCInvocations)
	if err := b.Dev.Array.SnapshotState(enc); err != nil {
		return err
	}
	if err := b.Al.SnapshotState(enc); err != nil {
		return err
	}
	return b.PMT.SnapshotState(enc)
}

// RestoreBase reads state written by SnapshotBase.
func (b *Base) RestoreBase(dec *snapshot.Decoder) error {
	dec.Tag("base")
	if err := b.Dev.Sched.RestoreState(dec); err != nil {
		return err
	}
	if err := b.Dev.Bus.RestoreState(dec); err != nil {
		return err
	}
	dec.Tag("counters")
	c := &b.Dev.Count
	c.DataReads = dec.I64()
	c.DataWrites = dec.I64()
	c.MapReads = dec.I64()
	c.MapWrites = dec.I64()
	c.GCReads = dec.I64()
	c.GCWrites = dec.I64()
	c.Erases = dec.I64()
	c.DRAMAccesses = dec.I64()
	c.GCInvocations = dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := b.Dev.Array.RestoreState(dec); err != nil {
		return err
	}
	if err := b.Al.RestoreState(dec); err != nil {
		return err
	}
	return b.PMT.RestoreState(dec)
}

// SnapshotState implements snapshot.Snapshotter: the baseline FTL has no
// state beyond the shared Base.
func (s *Baseline) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("scheme:FTL")
	return s.SnapshotBase(enc)
}

// RestoreState implements snapshot.Snapshotter.
func (s *Baseline) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("scheme:FTL")
	if err := s.RestoreBase(dec); err != nil {
		return err
	}
	return dec.Err()
}

// SnapshotState implements snapshot.Snapshotter for DFTL: Base plus the
// cached mapping table and the on-flash translation-page locations.
func (s *DFTL) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("scheme:DFTL")
	if err := s.SnapshotBase(enc); err != nil {
		return err
	}
	if err := s.cmt.SnapshotState(enc); err != nil {
		return err
	}
	return s.ms.SnapshotState(enc)
}

// RestoreState implements snapshot.Snapshotter.
func (s *DFTL) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("scheme:DFTL")
	if err := s.RestoreBase(dec); err != nil {
		return err
	}
	if err := s.cmt.RestoreState(dec); err != nil {
		return err
	}
	if err := s.ms.RestoreState(dec); err != nil {
		return err
	}
	return dec.Err()
}

// CopyState makes the allocator a copy of src, an allocator over the same
// geometry and policy, and returns the bytes copied.
func (a *Allocator) CopyState(src *Allocator) int64 {
	var n int
	for pl := range a.planes {
		st, from := &a.planes[pl], &src.planes[pl]
		st.freeBlocks = append(st.freeBlocks[:0], from.freeBlocks...)
		st.active, st.gcActive, st.freePages = from.active, from.gcActive, from.freePages
		n += len(st.freeBlocks)
	}
	a.rr = src.rr
	return 8 * int64(n)
}

// CopyState makes the store a copy of src, a store over the same
// translation-page ids, and returns the bytes copied.
func (m *MapStore) CopyState(src *MapStore) int64 {
	m.resident = src.resident
	return 4 * int64(copy(m.loc, src.loc))
}

// CopyBase copies the state SnapshotBase writes from src, a Base built for
// the same configuration, and returns the bytes copied. Schemes embed Base
// and call this first from their CopyState.
func (b *Base) CopyBase(src *Base) int64 {
	b.Dev.Count = src.Dev.Count
	return b.Dev.Sched.CopyState(src.Dev.Sched) + b.Dev.Bus.CopyState(src.Dev.Bus) +
		b.Dev.Array.CopyState(src.Dev.Array) + b.Al.CopyState(src.Al) + b.PMT.CopyState(src.PMT)
}

// CopyState makes the scheme a copy of src, a *Baseline built for the same
// configuration, without decoding or re-checking anything: the fork path of
// sim.Checkpoint, whose template has passed RestoreState and the audit. It
// returns the bytes copied.
func (s *Baseline) CopyState(src Scheme) int64 {
	return s.CopyBase(&src.(*Baseline).Base)
}

// CopyState is Baseline.CopyState for DFTL; src must be a *DFTL.
func (s *DFTL) CopyState(src Scheme) int64 {
	from := src.(*DFTL)
	return s.CopyBase(&from.Base) + s.cmt.CopyState(from.cmt) + s.ms.CopyState(from.ms)
}
