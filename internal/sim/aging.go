package sim

import (
	"context"
	"fmt"
	"math/rand"

	"across/internal/trace"
)

// Aging parameterises the warm-up of §4.1: the paper replays a separate
// trace until 90% of SSD capacity has been used, at which point valid data
// occupies 39.8% of capacity.
type Aging struct {
	// ValidFrac is the fraction of *physical* capacity holding valid data
	// after warm-up (paper: 0.398).
	ValidFrac float64
	// UsedFrac is the fraction of physical pages written (valid or stale)
	// at which warm-up stops (paper: 0.90). The GC threshold keeps the
	// device pinned near this level afterwards.
	UsedFrac float64
	// Seed drives the overwrite pattern.
	Seed int64
	// MaxWrites bounds the warm-up (0 = derived from device size).
	MaxWrites int64
}

// DefaultAging returns the paper's §4.1 setting.
func DefaultAging() Aging {
	return Aging{ValidFrac: 0.398, UsedFrac: 0.90, Seed: 20230801}
}

// Age warms the device: first a sequential fill creates the valid data set,
// then random overwrites inside it age the blocks until the used fraction is
// reached. All warm-up I/O flows through the scheme's ordinary write path
// (so mappings, areas and map caches age too), and is excluded from
// measurement by the counter reset in Replay.
func (r *Runner) Age(a Aging) error {
	return r.AgeCtx(context.Background(), a)
}

// AgeCtx is Age with cancellation: warm-up is the longest phase of a
// scheduled job, so a cancelled or timed-out context aborts it between
// batches of writes and returns the context's error.
func (r *Runner) AgeCtx(ctx context.Context, a Aging) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.warmed {
		return fmt.Errorf("sim: device already aged")
	}
	if a.ValidFrac <= 0 || a.ValidFrac >= 1 || a.UsedFrac <= a.ValidFrac || a.UsedFrac >= 1 {
		return fmt.Errorf("sim: implausible aging %+v", a)
	}
	dev := r.Scheme.Device()
	spp := r.Conf.SectorsPerPage()
	physPages := r.Conf.PagesTotal()
	logicalPages := r.Conf.LogicalPages()

	validPages := int64(float64(physPages) * a.ValidFrac)
	if validPages > logicalPages {
		validPages = logicalPages
	}
	maxWrites := a.MaxWrites
	if maxWrites == 0 {
		maxWrites = physPages * 4
	}

	// Phase 1: sequential fill of the valid set.
	done := ctx.Done()
	var wrote int64
	for lpn := int64(0); lpn < validPages; lpn++ {
		if lpn&1023 == 0 {
			select {
			case <-done:
				return fmt.Errorf("sim: aging cancelled at fill lpn %d: %w", lpn, ctx.Err())
			default:
			}
		}
		req := trace.Request{Op: trace.OpWrite, Offset: lpn * int64(spp), Count: int32(spp)}
		if _, err := r.Scheme.Write(req, 0); err != nil {
			return fmt.Errorf("sim: aging fill at lpn %d: %w", lpn, err)
		}
		wrote++
	}

	// Phase 2: random overwrites until the used fraction is reached. Once
	// GC starts cycling, the used fraction saturates just under the GC
	// threshold, so the loop also stops when further writes stop raising it
	// (plateau detection). State is sampled periodically — CountStates is a
	// full device scan.
	rng := rand.New(rand.NewSource(a.Seed))
	target := int64(float64(physPages) * a.UsedFrac)
	const checkEvery = 1024
	prevUsed, flat := int64(-1), 0
	for wrote < maxWrites {
		select {
		case <-done:
			return fmt.Errorf("sim: aging cancelled after %d warm-up writes: %w", wrote, ctx.Err())
		default:
		}
		free, _, _ := dev.Array.CountStates()
		used := physPages - free
		if used >= target {
			break
		}
		if used <= prevUsed {
			if flat++; flat >= 2 {
				break // GC is recycling space as fast as we dirty it
			}
		} else {
			flat = 0
		}
		prevUsed = used
		for i := 0; i < checkEvery && wrote < maxWrites; i++ {
			lpn := rng.Int63n(validPages)
			req := trace.Request{Op: trace.OpWrite, Offset: lpn * int64(spp), Count: int32(spp)}
			if _, err := r.Scheme.Write(req, 0); err != nil {
				return fmt.Errorf("sim: aging overwrite at lpn %d: %w", lpn, err)
			}
			wrote++
		}
	}
	r.warmed = true
	r.warmupWrites = wrote
	return nil
}

// AgeWithTrace warms the device by replaying a workload untimed (timestamps
// ignored, metrics discarded), the way §4.1 ages with the
// additional-02-2016021710-LUN6 trace. It can be combined with Age: the
// paper first fills, then replays.
func (r *Runner) AgeWithTrace(reqs []trace.Request) error {
	for i, req := range reqs {
		var err error
		switch req.Op {
		case trace.OpWrite:
			_, err = r.Scheme.Write(req, 0)
		case trace.OpRead:
			_, err = r.Scheme.Read(req, 0)
		default:
			err = fmt.Errorf("sim: aging request %d has unknown op", i)
		}
		if err != nil {
			return fmt.Errorf("sim: aging trace request %d: %w", i, err)
		}
		if req.Op == trace.OpWrite {
			r.warmupWrites++
		}
	}
	r.warmed = true
	return nil
}

// AgedState reports the post-warm-up state for verification: used and valid
// fractions of physical capacity.
func (r *Runner) AgedState() (usedFrac, validFrac float64) {
	dev := r.Scheme.Device()
	free, valid, _ := dev.Array.CountStates()
	total := float64(r.Conf.PagesTotal())
	return (total - float64(free)) / total, float64(valid) / total
}
