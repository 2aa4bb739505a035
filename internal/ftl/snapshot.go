package ftl

import (
	"fmt"

	"across/internal/cache"
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
		snapshot.I64Column(enc, st.freeBlocks)
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
		lo, hi := geo.BlocksOfPlane(flash.PlaneID(pl))
		st := &a.planes[pl]
		st.freeBlocks = st.freeBlocks[:0]
		dec.Column(8, -1, func(src []byte, _ int) error {
			for i := range len(src) / 8 {
				b := snapshot.I64(src, i)
				if b < int64(lo) || b >= int64(hi) {
					return fmt.Errorf("ftl: snapshot free block %d outside plane %d [%d,%d)", b, pl, lo, hi)
				}
				st.freeBlocks = append(st.freeBlocks, flash.BlockID(b))
			}
			return nil
		})
		active := dec.I64()
		gcActive := dec.I64()
		freePages := dec.I64()
		if err := dec.Err(); err != nil {
			return err
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

// SnapshotState appends the table under two tags: "cmt", its grouping
// factor, its LRU residency and its statistics, then "mapstore", the
// materialised translation pages as parallel id and location columns in
// ascending id order, the format's canonical one.
func (t *PagedTable) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("cmt")
	enc.I64(t.perPage)
	if err := t.lru.SnapshotState(enc); err != nil {
		return err
	}
	enc.I64(t.stats.Lookups)
	enc.I64(t.stats.Hits)
	enc.I64(t.stats.Misses)
	enc.I64(t.stats.DirtyEvicts)
	enc.I64(t.stats.CleanEvicts)
	enc.Tag("mapstore")
	// resident writes, for each materialised page in id order, what of picks
	// of it; a column's blocks arrive in order, so the walk resumes at next.
	resident := func(of func(id int, ppn int32) int64) {
		next := 0
		enc.Column(t.resident, 8, func(dst []byte, _ int) {
			for i := 0; i < len(dst)/8; next++ {
				if ppn := t.loc[next]; flash.PPN(ppn) != flash.NilPPN {
					snapshot.PutI64(dst, i, of(next, ppn))
					i++
				}
			}
		})
	}
	resident(func(id int, _ int32) int64 { return int64(id) })
	resident(func(_ int, ppn int32) int64 { return int64(ppn) })
	return nil
}

// RestoreState reads state written by SnapshotState into a fresh table of
// the same shape, refusing another grouping factor or LRU shape, a
// duplicated page id, an id outside the table and a location outside the
// device.
func (t *PagedTable) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("cmt")
	perPage := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	if perPage != t.perPage {
		return fmt.Errorf("ftl: snapshot paged table has %d entries/page, receiver has %d", perPage, t.perPage)
	}
	if err := t.lru.RestoreState(dec); err != nil {
		return err
	}
	t.stats = cache.CMTStats{
		Lookups:     dec.I64(),
		Hits:        dec.I64(),
		Misses:      dec.I64(),
		DirtyEvicts: dec.I64(),
		CleanEvicts: dec.I64(),
	}
	dec.Tag("mapstore")
	var ids []int32 // wait for their locations; grows as they arrive
	t.resident = dec.Column(8, -1, func(src []byte, _ int) error {
		for i := range len(src) / 8 {
			id := snapshot.I64(src, i)
			if id < 0 || id >= int64(len(t.loc)) {
				return fmt.Errorf("%w: map store page %d outside [0,%d)", snapshot.ErrCorrupt, id, len(t.loc))
			}
			ids = append(ids, int32(id))
		}
		return nil
	})
	dec.Column(8, t.resident, func(src []byte, first int) error {
		for i := range len(src) / 8 {
			id, ppn := ids[first+i], flash.PPN(snapshot.I64(src, i))
			if flash.PPN(t.loc[id]) != flash.NilPPN {
				return fmt.Errorf("ftl: snapshot map store page %d duplicated", id)
			}
			if err := t.dev.Array.Geo.CheckPPN(ppn); err != nil {
				return fmt.Errorf("%w: map store page %d: %v", snapshot.ErrCorrupt, id, err)
			}
			t.loc[id] = int32(ppn)
		}
		return nil
	})
	return dec.Err()
}

// SnapshotBase appends the state shared by every scheme: chip and bus
// timelines, operation counters, the flash array, the allocator and the
// page mapping table, then, when the table is demand-paged, its paged
// table. Schemes embed Base and call this
// first from their SnapshotState.
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
	if err := b.PMT.SnapshotState(enc); err != nil || b.pmt == nil {
		return err
	}
	return b.pmt.SnapshotState(enc)
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
	if err := b.PMT.RestoreState(dec); err != nil || b.pmt == nil {
		return err
	}
	return b.pmt.RestoreState(dec)
}

// SnapshotState implements snapshot.Snapshotter: the baseline FTL and DFTL
// have no state beyond the shared Base.
func (s *Baseline) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("scheme:" + s.Name())
	return s.SnapshotBase(enc)
}

// RestoreState implements snapshot.Snapshotter.
func (s *Baseline) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("scheme:" + s.Name())
	if err := s.RestoreBase(dec); err != nil {
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

// CopyState makes the table a copy of src, a table of the same shape, and
// returns the bytes copied.
func (t *PagedTable) CopyState(src *PagedTable) int64 {
	t.stats, t.resident = src.stats, src.resident
	return t.lru.CopyState(src.lru) + 4*int64(copy(t.loc, src.loc))
}

// CopyBase copies the state SnapshotBase writes from src, a Base built for
// the same configuration and table residence, and returns the bytes copied.
// Schemes embed Base and call this first from their CopyState.
func (b *Base) CopyBase(src *Base) int64 {
	b.Dev.Count = src.Dev.Count
	n := b.Dev.Sched.CopyState(src.Dev.Sched) + b.Dev.Bus.CopyState(src.Dev.Bus) +
		b.Dev.Array.CopyState(src.Dev.Array) + b.Al.CopyState(src.Al) + b.PMT.CopyState(src.PMT)
	if b.pmt != nil {
		n += b.pmt.CopyState(src.pmt)
	}
	return n
}

// CopyState makes the scheme a copy of src, a *Baseline built for the same
// configuration, without decoding or re-checking anything: the fork path of
// sim.Checkpoint, whose template has passed RestoreState and the audit. It
// returns the bytes copied.
func (s *Baseline) CopyState(src Scheme) int64 {
	return s.CopyBase(&src.(*Baseline).Base)
}
