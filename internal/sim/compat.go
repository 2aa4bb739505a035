package sim

import "across/internal/trace"

// Deprecated: ParallelOptions belonged to the removed parallel engine. It
// stays only for benchmark/probes.go, frozen for this PR; the next benchmark
// PR drops that probe and this file together.
type ParallelOptions struct{ Workers int }

// Deprecated: ReplayParallel is ReplayQD — there is one engine (DESIGN.md
// §11). See ParallelOptions for when this file goes.
func (r *Runner) ReplayParallel(reqs []trace.Request, qd int, _ ParallelOptions) (*Result, error) {
	return r.ReplayQD(reqs, qd)
}
