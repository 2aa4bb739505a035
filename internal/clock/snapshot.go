package clock

import (
	"fmt"

	"across/internal/snapshot"
)

// SnapshotState appends the scheduler's mutable timing state: per-chip
// busy-until and accumulated busy time, plus the operation count.
func (s *Scheduler) SnapshotState(enc *snapshot.Encoder) error {
	enc.Tag("clock")
	enc.F64s(s.busyUntil)
	enc.F64s(s.busyTime)
	enc.I64(s.ops)
	return nil
}

// RestoreState reads state written by SnapshotState into a scheduler
// constructed for the same chip count.
func (s *Scheduler) RestoreState(dec *snapshot.Decoder) error {
	dec.Tag("clock")
	busyUntil := dec.F64s()
	busyTime := dec.F64s()
	ops := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(busyUntil) != len(s.busyUntil) || len(busyTime) != len(s.busyTime) {
		return fmt.Errorf("clock: snapshot has %d chips, scheduler has %d", len(busyUntil), len(s.busyUntil))
	}
	copy(s.busyUntil, busyUntil)
	copy(s.busyTime, busyTime)
	s.ops = ops
	return nil
}

// CopyState makes the scheduler a copy of src, a scheduler for the same
// chip count, and returns the bytes copied.
func (s *Scheduler) CopyState(src *Scheduler) int64 {
	n := copy(s.busyUntil, src.busyUntil) + copy(s.busyTime, src.busyTime)
	s.ops = src.ops
	return 8 * int64(n)
}
