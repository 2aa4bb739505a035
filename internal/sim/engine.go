package sim

import (
	"context"
	"fmt"

	"across/internal/check"
	"across/internal/ftl"
	"across/internal/obs"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// Runner owns one scheme instance over one simulated device and replays
// traces against it.
type Runner struct {
	Conf   *ssdconf.Config
	Kind   SchemeKind
	Scheme ftl.Scheme

	warmed       bool
	warmupWrites int64

	// tracer and sampler, when set, observe subsequent replays (see
	// observe.go). Both are installed at Replay entry so aging runs are
	// never traced.
	tracer  obs.Tracer
	sampler *obs.Sampler

	// checker, when set, verifies subsequent replays (see verify.go): the
	// shadow model after every request, the device-wide audit periodically
	// and at end of run.
	checker *check.Checker
}

// WarmupWrites reports the page programs spent aging this runner (restored
// runners carry their checkpoint's count) — the fleet layer sums these into
// its Result the way beginReplay copies them into a single-device one.
func (r *Runner) WarmupWrites() int64 { return r.warmupWrites }

// NewRunner builds a scheme of the given kind on a fresh device.
func NewRunner(kind SchemeKind, conf ssdconf.Config) (*Runner, error) {
	if err := conf.Validate(); err != nil {
		return nil, err
	}
	s, err := newStack(kind, &conf, nil)
	if err != nil {
		return nil, err
	}
	return &Runner{Conf: &conf, Kind: kind, Scheme: s}, nil
}

// Replay runs a trace through the scheme open-loop (every request is
// dispatched at its trace arrival time) and collects a Result. Timelines,
// operation counters and scheme statistics are reset at entry, so the result
// reflects only this trace (state — mappings, block wear, aged free space —
// carries over, which is what makes aging meaningful).
func (r *Runner) Replay(reqs []trace.Request) (*Result, error) {
	return r.ReplayQDCtx(context.Background(), reqs, 0)
}

// ReplayQD replays with a bounded queue depth: at most qd requests are
// outstanding; a request whose trace arrival finds the queue full is
// deferred to the earliest completion (closed-loop behaviour, the way a
// host with qd in-flight commands drives a device). qd <= 0 replays
// open-loop.
func (r *Runner) ReplayQD(reqs []trace.Request, qd int) (*Result, error) {
	return r.ReplayQDCtx(context.Background(), reqs, qd)
}

// cancelCheckMask bounds how stale a replay's view of its context can get:
// Drive polls cancellation every cancelCheckMask+1 requests, so a cancelled
// or timed-out replay stops within 64 requests of the signal while the
// uncancelled hot path pays only a nil-channel select once per 64 requests.
const cancelCheckMask = 63

// Look-ahead distances of the host loop's hints, in requests: while request
// i is served, the mapping entries of request i+mapAhead are hinted, and the
// flash or census state those entries point at for request i+dataAhead,
// whose entries have arrived by then. Constants, not knobs: they only move
// host time, and were tuned once on the gc-churn cell (DESIGN §7).
const (
	mapAhead  = 16
	dataAhead = 8
)

// hinter returns the scheme's look-ahead capability, nil when it has none.
func (r *Runner) hinter() prefetcher {
	pf, _ := r.Scheme.(prefetcher)
	return pf
}

// hintAhead is the hint step of every loop that knows its requests before
// it serves them, the host loop's and the untimed one's: while reqs[i] is
// served, pf hints the mapping entries of reqs[i+mapAhead] and what the
// entries of reqs[i+dataAhead] point at.
func hintAhead(pf prefetcher, reqs []trace.Request, i int) {
	if j := i + mapAhead; j < len(reqs) {
		pf.PrefetchMap(reqs[j])
	}
	if j := i + dataAhead; j < len(reqs) {
		pf.PrefetchData(reqs[j])
	}
}

// Served is what serving one host request yields: its completion time and
// the flash data programs and reads (host and GC) attributed to it.
type Served struct {
	Done           float64
	Flushes, Reads int64
}

// ServeFunc serves request i of a replay, issued at time issue (its
// arrival, or later when the host queue was full).
type ServeFunc func(i int, req trace.Request, issue float64) (Served, error)

// Drive is the host loop every replay runs through, a device's or a
// volume's. It takes reqs in trace order on the calling goroutine, has
// serve service each one, and folds the response time — trace arrival to
// completion, so host-queue delay counts — into m per direction and per
// (direction, alignment class under spp sectors per page). qd bounds the
// host queue: at most qd requests are outstanding, and a request whose
// arrival finds the queue full is issued at the earliest completion
// (closed loop, the way a host with qd in-flight commands drives a
// device); qd <= 0 issues every request at its arrival (open loop). ctx is
// polled every 64 requests. After the last request Drive sets the spans:
// the makespan runs from the first arrival to the later of the last
// arrival and horizon(), the time the device or devices go idle.
func (m *Measured) Drive(ctx context.Context, reqs []trace.Request, qd, spp int, serve ServeFunc, horizon func() float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var inflight []float64 // completion times of outstanding requests (QD mode)
	if qd > 0 {
		inflight = make([]float64, 0, qd)
	}
	done := ctx.Done() // nil for Background: the select below always falls through
	for i, req := range reqs {
		if i&cancelCheckMask == 0 {
			select {
			case <-done:
				return fmt.Errorf("replay cancelled at request %d/%d: %w", i, len(reqs), ctx.Err())
			default:
			}
		}
		issue := req.Time
		if qd > 0 {
			// Retire completed requests, then defer the issue to the
			// earliest completion if the queue is still full.
			for {
				kept := inflight[:0]
				earliest := -1.0
				for _, c := range inflight {
					if c > issue {
						kept = append(kept, c)
						if earliest < 0 || c < earliest {
							earliest = c
						}
					}
				}
				inflight = kept
				if len(inflight) < qd {
					break
				}
				issue = earliest
			}
		}
		s, err := serve(i, req, issue)
		if err != nil {
			return err
		}
		if qd > 0 {
			inflight = append(inflight, s.Done)
		}
		m.fold(req, req.Classify(spp), s)
	}
	if n := len(reqs); n > 0 {
		m.TraceSpanMs = reqs[n-1].Time - reqs[0].Time
		end := horizon()
		if reqs[n-1].Time > end {
			end = reqs[n-1].Time
		}
		m.MeasuredSpanMs = end - reqs[0].Time
	}
	return nil
}

// fold applies one served request to the measured core.
func (m *Measured) fold(req trace.Request, class trace.Class, s Served) {
	lat := s.Done - req.Time
	m.Requests++
	if req.Op == trace.OpWrite {
		m.WriteCount++
		m.WriteLatencySum += lat
		m.WriteLat.Add(lat)
	} else {
		m.ReadCount++
		m.ReadLatencySum += lat
		m.ReadLat.Add(lat)
	}
	b := &m.ByBucket[req.Op][class]
	b.Requests++
	b.Sectors += int64(req.Count)
	b.LatencySum += lat
	b.Flushes += s.Flushes
	b.FlashReads += s.Reads
}

// beginReplay resets measurement state and seeds the Result.
func (r *Runner) beginReplay() *Result {
	r.ResetMeasurement()
	return &Result{Scheme: r.Scheme.Name(), Measured: Measured{WarmupWrites: r.warmupWrites}}
}

// finishReplay collects the end-of-run Result fields that are functions of
// final device and scheme state.
func (r *Runner) finishReplay(res *Result) {
	dev := r.Scheme.Device()
	res.Counters = dev.Count
	res.TableBytes = r.Scheme.TableBytes()
	mean, sd, lo, hi := dev.Array.WearStats()
	res.Wear = WearSummary{Mean: mean, StdDev: sd, Min: lo, Max: hi}
	res.ChipBusyMs = make([]float64, dev.Sched.Chips())
	for i := range res.ChipBusyMs {
		res.ChipBusyMs[i] = dev.Sched.BusyTime(i)
	}
	if a, ok := r.Scheme.(acrossCensus); ok {
		st := a.Stats()
		res.Across = &st
	}
	if e, _ := entryOf(r.Kind); e.cmtInResult {
		if c, ok := r.Scheme.(cmtCensus); ok {
			res.CMT = c.CMTStats()
		}
	}
}

// ResetMeasurement zeroes the device's timelines and counters and the
// scheme's statistics, keeping mapping and wear state: what every replay,
// single-device or fleet, does before it measures.
func (r *Runner) ResetMeasurement() {
	r.Scheme.Device().ResetMeasurement()
	if sr, ok := r.Scheme.(statsResetter); ok {
		sr.ResetStats()
	}
}

// Dispatch serves one request on this runner's scheme at time issue, with
// no tracer, checker or sampler in the way: its completion time and the
// flash data programs and reads (host and GC) it caused, read as deltas of
// the device counters. A replay calls it once per request and a fleet once
// per fragment.
func (r *Runner) Dispatch(req trace.Request, issue float64) (Served, error) {
	dev := r.Scheme.Device()
	wBefore := dev.Count.DataWrites + dev.Count.GCWrites
	rBefore := dev.Count.DataReads + dev.Count.GCReads
	var (
		done float64
		err  error
	)
	switch req.Op {
	case trace.OpWrite:
		done, err = r.Scheme.Write(req, issue)
	case trace.OpRead:
		done, err = r.Scheme.Read(req, issue)
	default:
		err = fmt.Errorf("unknown op %d", req.Op)
	}
	if err != nil {
		return Served{}, err
	}
	return Served{
		Done:    done,
		Flushes: (dev.Count.DataWrites + dev.Count.GCWrites) - wBefore,
		Reads:   (dev.Count.DataReads + dev.Count.GCReads) - rBefore,
	}, nil
}

// ReplayQDCtx is ReplayQD with cancellation: Drive polls ctx every 64
// requests, so long replays driven by a job scheduler can be stopped
// promptly without the hot path paying a per-request check. Each request
// is served by Dispatch between the tracer, sampler and checker hooks,
// after the scheme is asked to hint requests ahead (mapAhead, dataAhead).
func (r *Runner) ReplayQDCtx(ctx context.Context, reqs []trace.Request, qd int) (*Result, error) {
	dev := r.Scheme.Device()
	res := r.beginReplay()
	spp := r.Conf.SectorsPerPage()

	// Observability (nil-guarded: the untraced replay pays one branch per
	// site and zero allocations). The sampler's feed tracks its own
	// in-flight set so queue depth is observable even in open-loop mode.
	trc := r.tracer
	dev.SetTracer(trc)
	// Verification (nil-guarded like the tracer: the unchecked replay pays
	// one branch per request and zero allocations). BeginReplay runs after
	// ResetMeasurement so the attribution identities see zeroed counters.
	chk := r.checker
	if chk != nil {
		if err := chk.BeginReplay(); err != nil {
			return nil, fmt.Errorf("sim: arming checker: %w", err)
		}
	}
	smp := r.sampler
	var (
		feed *sampleFeed
		fill func(*obs.Sample)
	)
	if smp != nil {
		feed = r.newSampleFeed(res)
		fill = feed.fill
	}

	pf := r.hinter()
	serve := func(i int, req trace.Request, issue float64) (Served, error) {
		if pf != nil {
			hintAhead(pf, reqs, i)
		}
		if smp != nil {
			// Advance the sampler's clock before dispatch, so a boundary
			// sample sees the state as of this arrival, excluding the
			// request being dispatched.
			smp.Tick(issue, fill)
		}
		if trc != nil {
			trc.RequestStart(int64(i), req.Op == trace.OpWrite, uint8(req.Classify(spp)),
				req.Offset, int64(req.Count), int(req.LastLPN(spp)-req.FirstLPN(spp))+1, issue)
		}
		s, err := r.Dispatch(req, issue)
		if err != nil {
			return s, fmt.Errorf("replaying request %d (%v): %w", i, req, err)
		}
		if chk != nil {
			var cerr error
			if req.Op == trace.OpWrite {
				cerr = chk.OnWrite(req)
			} else {
				cerr = chk.OnRead(req)
			}
			if cerr != nil {
				return s, fmt.Errorf("verification failed after request %d (%v): %w", i, req, cerr)
			}
		}
		if trc != nil {
			trc.RequestEnd(int64(i), req.Op == trace.OpWrite, s.Done)
		}
		if smp != nil {
			smp.Note(req.Op == trace.OpWrite, s.Done-req.Time)
			feed.served(req, issue, s.Done)
		}
		return s, nil
	}
	if err := res.Drive(ctx, reqs, qd, spp, serve, dev.Sched.Horizon); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	if chk != nil {
		if err := chk.Finish(); err != nil {
			return nil, fmt.Errorf("sim: end-of-replay verification failed: %w", err)
		}
	}

	r.finishReplay(res)
	if smp != nil {
		// The run ends when the last completion lands: bus transfers can
		// finish after the chip-busy horizon, and arrivals can trail the
		// horizon on idle tails.
		end := dev.Sched.Horizon()
		if feed.lastDone > end {
			end = feed.lastDone
		}
		if n := len(reqs); n > 0 && reqs[n-1].Time > end {
			end = reqs[n-1].Time
		}
		// The closing sample counts its queue depth at end, so it reports
		// the drained queue.
		smp.Finish(end, fill)
	}
	return res, nil
}

// Run is the one-call convenience: build, age, replay.
func Run(kind SchemeKind, conf ssdconf.Config, reqs []trace.Request, age bool) (*Result, error) {
	r, err := NewRunner(kind, conf)
	if err != nil {
		return nil, err
	}
	if age {
		if err := r.Age(DefaultAging()); err != nil {
			return nil, err
		}
	}
	return r.Replay(reqs)
}
