package hostcache

import (
	"fmt"

	"across/internal/ftl"
	"across/internal/snapshot"
)

// CachePages returns the data-buffer capacity in pages the wrapper was
// built with (sim.Restore uses it to reconstruct the wrap).
func (s *Scheme) CachePages() int { return s.lru.Cap() }

// SnapshotState implements snapshot.Snapshotter: the wrapped scheme's state
// followed by the data buffer's residency and the cache statistics.
func (s *Scheme) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("hostcache")
	inner, ok := s.inner.(snapshot.Snapshotter)
	if !ok {
		return fmt.Errorf("hostcache: wrapped scheme %s does not support snapshots", s.inner.Name())
	}
	if err := inner.SnapshotState(enc); err != nil {
		return err
	}
	if err := s.lru.SnapshotState(enc); err != nil {
		return err
	}
	enc.I64(s.stats.ReadHits)
	enc.I64(s.stats.ReadMisses)
	enc.I64(s.stats.Inserted)
	return nil
}

// RestoreState implements snapshot.Snapshotter.
func (s *Scheme) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("hostcache")
	inner, ok := s.inner.(snapshot.Snapshotter)
	if !ok {
		return fmt.Errorf("hostcache: wrapped scheme %s does not support snapshots", s.inner.Name())
	}
	if err := inner.RestoreState(dec); err != nil {
		return err
	}
	if err := s.lru.RestoreState(dec); err != nil {
		return err
	}
	s.stats = Stats{
		ReadHits:   dec.I64(),
		ReadMisses: dec.I64(),
		Inserted:   dec.I64(),
	}
	return dec.Err()
}

// CopyState makes the wrapper and the scheme it wraps copies of src's, a
// *Scheme wrapping the same kind of scheme with the same capacity, and
// returns the bytes copied.
func (s *Scheme) CopyState(src ftl.Scheme) int64 {
	from := src.(*Scheme)
	s.stats = from.stats
	return s.inner.(interface{ CopyState(ftl.Scheme) int64 }).CopyState(from.inner) + s.lru.CopyState(from.lru)
}
