package cache

import (
	"fmt"
	"unsafe"

	"across/internal/snapshot"
)

// SnapshotState appends the LRU's shape (capacity and key space) followed by
// the resident keys and dirty bits in MRU→LRU order.
// The free list is recycled scratch with no observable effect and is not
// serialised.
func (l *LRU) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("lru")
	enc.I64(int64(l.capacity))
	enc.I64(int64(len(l.dense)))
	enc.I64(int64(l.size))
	for n := l.head; n != nil; n = n.next {
		enc.I64(n.key)
		enc.Bool(n.dirty)
	}
	return nil
}

// RestoreState reads state written by SnapshotState into an LRU constructed
// with the same capacity and key space. Shape mismatches are rejected rather
// than resized: capacity and key space are config-derived, so a divergence
// means the snapshot belongs to a different configuration (and resizing
// from decoded values would let hostile snapshots drive allocation).
func (l *LRU) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("lru")
	capacity := dec.I64()
	keySpace := dec.I64()
	size := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	if capacity != int64(l.capacity) || keySpace != int64(len(l.dense)) {
		return fmt.Errorf("cache: snapshot LRU shape (cap %d, keyspace %d) does not match receiver (cap %d, keyspace %d)",
			capacity, keySpace, l.capacity, len(l.dense))
	}
	if size < 0 || size > capacity {
		return fmt.Errorf("cache: snapshot LRU size %d outside [0,%d]", size, capacity)
	}
	type entry struct {
		key   int64
		dirty bool
	}
	entries := make([]entry, size)
	for i := range entries {
		entries[i] = entry{dec.I64(), dec.Bool()}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	// Drop any current residents, then re-insert LRU-first so that Touch
	// reproduces the recorded recency order exactly.
	for l.head != nil {
		l.Remove(l.head.key)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.key < 0 || e.key >= int64(len(l.dense)) {
			return fmt.Errorf("cache: snapshot LRU key %d outside key space [0,%d)", e.key, len(l.dense))
		}
		if hit, _, _, evicted := l.Touch(e.key, e.dirty); hit || evicted {
			return fmt.Errorf("cache: snapshot LRU key %d duplicated", e.key)
		}
	}
	return nil
}

// CopyState makes the LRU a copy of src, an LRU of the same capacity and
// key space: src's residents re-inserted LRU-first, as RestoreState does, which
// reproduces its recency order. It returns the bytes of the nodes built.
func (l *LRU) CopyState(src *LRU) int64 {
	for l.head != nil {
		l.Remove(l.head.key)
	}
	for n := src.tail; n != nil; n = n.prev {
		l.Touch(n.key, n.dirty)
	}
	return int64(unsafe.Sizeof(lruNode{})) * int64(l.size)
}
