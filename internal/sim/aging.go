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
	return r.age(ctx, a, r.hinter(), nil)
}

// age is AgeCtx with the tests' seam: pf hints ahead (nil hints nothing),
// and after, when set, looks at the device after every batch.
func (r *Runner) age(ctx context.Context, a Aging, pf prefetcher, after func()) error {
	if r.warmed {
		return fmt.Errorf("sim: device already aged")
	}
	if a.ValidFrac <= 0 || a.ValidFrac >= 1 || a.UsedFrac <= a.ValidFrac || a.UsedFrac >= 1 {
		return fmt.Errorf("sim: implausible aging %+v", a)
	}
	al, ok := r.Scheme.(allocatorOwner)
	if !ok {
		return fmt.Errorf("sim: %s exposes no allocator to age against", r.Kind)
	}
	spp := int64(r.Conf.SectorsPerPage())
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
	w := untimed{r: r, ctx: ctx, after: after}
	batch := make([]trace.Request, 0, ageBatch)
	page := func(lpn int64) trace.Request {
		return trace.Request{Op: trace.OpWrite, Offset: lpn * spp, Count: int32(spp)}
	}

	// Phase 1: sequential fill of the valid set, unhinted: its entries are
	// adjacent, which the hardware prefetcher follows unasked, so a hint
	// there only costs time (DESIGN §7).
	for lpn := int64(0); lpn < validPages; {
		batch = batch[:0]
		for ; lpn < validPages && len(batch) < ageBatch; lpn++ {
			batch = append(batch, page(lpn))
		}
		if err := w.serve(batch); err != nil {
			return fmt.Errorf("sim: aging fill: %w", err)
		}
	}

	// Phase 2: random overwrites until the used fraction is reached. Once
	// GC starts cycling, the used fraction saturates just under the GC
	// threshold, so the loop also stops when further writes stop raising it
	// (plateau detection). Used pages are read between batches from the
	// allocator's per-plane free counts, which check.Audit holds equal to
	// the array's; a batch draws all its LPNs before writing any, which
	// takes them from the RNG in the order one-at-a-time drawing did.
	w.pf = pf
	rng := rand.New(rand.NewSource(a.Seed))
	target := int64(float64(physPages) * a.UsedFrac)
	prevUsed, flat := int64(-1), 0
	for w.writes < maxWrites {
		used := physPages - al.Allocator().TotalFreePages()
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
		batch = batch[:min(ageBatch, maxWrites-w.writes)]
		for i := range batch {
			batch[i] = page(rng.Int63n(validPages))
		}
		if err := w.serve(batch); err != nil {
			return fmt.Errorf("sim: aging overwrite: %w", err)
		}
	}
	r.warmed = true
	r.warmupWrites = w.writes
	return nil
}

// AgeWithTrace warms the device by replaying a workload untimed (timestamps
// ignored, metrics discarded), the way §4.1 ages with the
// additional-02-2016021710-LUN6 trace. It can be combined with Age: the
// paper first fills, then replays.
func (r *Runner) AgeWithTrace(reqs []trace.Request) error {
	w := untimed{r: r, ctx: context.Background(), pf: r.hinter()}
	var err error
	for lo := 0; lo < len(reqs) && err == nil; lo += ageBatch {
		err = w.serve(reqs[lo:min(lo+ageBatch, len(reqs))])
	}
	r.warmupWrites += w.writes
	if err != nil {
		return fmt.Errorf("sim: aging trace: %w", err)
	}
	r.warmed = true
	return nil
}

// ageBatch is how many requests the untimed loop serves between two looks
// at its context and, in Age's overwrite phase, at the stop rule.
const ageBatch = 1024

// untimed is the one loop every untimed request runs through: Age's fill
// and overwrites and AgeWithTrace's trace. It serves a batch at time 0,
// outside any measurement, hinting ahead as the host loop does (hintAhead),
// and looks at its context once per batch.
type untimed struct {
	r      *Runner
	ctx    context.Context
	pf     prefetcher // nil hints nothing
	after  func()     // nil, or a test's look at the device after each batch
	served int64      // requests served, the index of the next
	writes int64      // writes among them
}

// serve runs one batch in order; a cancelled context stops it before its
// first request, and a failing request where it fails.
func (w *untimed) serve(batch []trace.Request) error {
	select {
	case <-w.ctx.Done():
		return fmt.Errorf("cancelled after %d warm-up writes: %w", w.writes, w.ctx.Err())
	default:
	}
	s := w.r.Scheme
	for i, req := range batch {
		if w.pf != nil {
			hintAhead(w.pf, batch, i)
		}
		var err error
		switch req.Op {
		case trace.OpWrite:
			_, err = s.Write(req, 0)
		case trace.OpRead:
			_, err = s.Read(req, 0)
		default:
			err = fmt.Errorf("unknown op %d", req.Op)
		}
		if err != nil {
			return fmt.Errorf("request %d (%v): %w", w.served, req, err)
		}
		w.served++
		if req.Op == trace.OpWrite {
			w.writes++
		}
	}
	if w.after != nil {
		w.after()
	}
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
