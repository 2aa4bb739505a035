// Package clock provides the discrete-event timing substrate of the
// simulator. Each flash chip is an exclusive resource with a busy-until
// timestamp; an operation submitted at time t starts at max(t, busyUntil)
// and occupies the chip for its duration. A host request fans out into
// page-level sub-operations (possibly on different chips) and completes when
// the last of them completes — exactly the sub-request semantics described
// in §2.1 of the paper.
//
// Times are float64 milliseconds since the start of the replay.
package clock

import "fmt"

// Scheduler tracks the busy-until time of every chip.
type Scheduler struct {
	busyUntil []float64
	busyTime  []float64 // accumulated service time per chip (utilisation)
	ops       int64
}

// NewScheduler creates a scheduler for n chips.
func NewScheduler(n int) *Scheduler {
	if n <= 0 {
		panic(fmt.Sprintf("clock: invalid chip count %d", n))
	}
	return &Scheduler{
		busyUntil: make([]float64, n),
		busyTime:  make([]float64, n),
	}
}

// Chips returns the number of chips under management.
func (s *Scheduler) Chips() int { return len(s.busyUntil) }

// Schedule books an operation of the given duration on a chip, earliest at
// time now, and returns its completion time.
func (s *Scheduler) Schedule(chip int, now, duration float64) float64 {
	if chip < 0 || chip >= len(s.busyUntil) {
		panic(fmt.Sprintf("clock: chip %d out of range [0,%d)", chip, len(s.busyUntil)))
	}
	if duration < 0 {
		panic(fmt.Sprintf("clock: negative duration %v", duration))
	}
	start := now
	if s.busyUntil[chip] > start {
		start = s.busyUntil[chip]
	}
	end := start + duration
	s.busyUntil[chip] = end
	s.busyTime[chip] += duration
	s.ops++
	return end
}

// BusyUntil reports when a chip becomes idle.
func (s *Scheduler) BusyUntil(chip int) float64 { return s.busyUntil[chip] }

// BusyTime reports the total service time booked on a chip.
func (s *Scheduler) BusyTime(chip int) float64 { return s.busyTime[chip] }

// Ops reports the number of scheduled operations.
func (s *Scheduler) Ops() int64 { return s.ops }

// Horizon returns the latest busy-until time over all chips — the earliest
// moment by which the whole device is guaranteed idle.
func (s *Scheduler) Horizon() float64 {
	var h float64
	for _, t := range s.busyUntil {
		if t > h {
			h = t
		}
	}
	return h
}

// Reset zeroes all timelines but keeps the chip count. The simulator calls
// it between the (untimed) warm-up phase and the measured phase.
func (s *Scheduler) Reset() {
	for i := range s.busyUntil {
		s.busyUntil[i] = 0
		s.busyTime[i] = 0
	}
	s.ops = 0
}

// Join tracks the completion time of a fan-out of sub-operations: a host
// request is done when its slowest sub-operation is done.
type Join struct {
	start float64
	end   float64
	n     int
}

// NewJoin starts a join for a request arriving at time t.
func NewJoin(t float64) Join { return Join{start: t, end: t} }

// Add folds one sub-operation completion time into the join.
func (j *Join) Add(completion float64) {
	if completion > j.end {
		j.end = completion
	}
	j.n++
}

// AddDelay extends the completion time by a serial delay (e.g. a DRAM cache
// access that happens on the critical path).
func (j *Join) AddDelay(d float64) { j.end += d }

// Done returns the request completion time.
func (j *Join) Done() float64 { return j.end }

// Latency returns the request response time (completion - arrival).
func (j *Join) Latency() float64 { return j.end - j.start }

// Ops returns the number of sub-operations joined.
func (j *Join) Ops() int { return j.n }
