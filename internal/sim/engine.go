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

// cancelCheckMask bounds how stale a replay's view of its context can get:
// cancellation is polled every cancelCheckMask+1 requests, so a cancelled or
// timed-out ReplayQDCtx stops within 64 requests of the signal while the
// uncancelled hot path pays only a nil-channel select once per 64 requests.
const cancelCheckMask = 63

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
	return NewRunnerWithHostCache(kind, conf, 0)
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

// reqRecord is everything the metric fold needs to know about one serviced
// request.
type reqRecord struct {
	op      trace.Op
	class   trace.Class
	count   int32
	lat     float64
	flushes int64
	reads   int64
}

// foldRecord applies one request's observations to the Result.
func (res *Result) foldRecord(buckets *[2][3]*OpClassMetrics, rec reqRecord) {
	res.Requests++
	if rec.op == trace.OpWrite {
		res.WriteCount++
		res.WriteLatencySum += rec.lat
		res.WriteLat.Add(rec.lat)
	} else {
		res.ReadCount++
		res.ReadLatencySum += rec.lat
		res.ReadLat.Add(rec.lat)
	}
	b := buckets[rec.op][rec.class]
	b.Requests++
	b.Sectors += int64(rec.count)
	b.LatencySum += rec.lat
	b.Flushes += rec.flushes
	b.FlashReads += rec.reads
}

// beginReplay resets measurement state and prepares the Result with every
// (direction, class) bucket preallocated, so the replay loop never hashes a
// map key or allocates a metrics struct.
func (r *Runner) beginReplay() (*Result, *[2][3]*OpClassMetrics) {
	r.ResetMeasurement()
	res := &Result{
		Scheme:       r.Scheme.Name(),
		ByBucket:     make(map[BucketKey]*OpClassMetrics, 6),
		WarmupWrites: r.warmupWrites,
	}
	buckets := new([2][3]*OpClassMetrics)
	for _, op := range []trace.Op{trace.OpRead, trace.OpWrite} {
		for _, class := range []trace.Class{trace.ClassAligned, trace.ClassAcross, trace.ClassUnaligned} {
			buckets[op][class] = res.Bucket(op, class)
		}
	}
	return res, buckets
}

// finishReplay collects the end-of-run Result fields that are functions of
// final device and scheme state.
func (r *Runner) finishReplay(res *Result, reqs []trace.Request) {
	dev := r.Scheme.Device()
	res.Counters = dev.Count
	res.TableBytes = r.Scheme.TableBytes()
	mean, sd, lo, hi := dev.Array.WearStats()
	res.Wear = WearSummary{Mean: mean, StdDev: sd, Min: lo, Max: hi}
	res.ChipBusyMs = make([]float64, dev.Sched.Chips())
	for i := range res.ChipBusyMs {
		res.ChipBusyMs[i] = dev.Sched.BusyTime(i)
	}
	if n := len(reqs); n > 0 {
		res.TraceSpanMs = reqs[n-1].Time - reqs[0].Time
		// The measured makespan runs to the device idle horizon: service
		// (and GC) extends past the last arrival, so utilisation uses this
		// denominator, not the arrival span.
		end := dev.Sched.Horizon()
		if reqs[n-1].Time > end {
			end = reqs[n-1].Time
		}
		res.MeasuredSpanMs = end - reqs[0].Time
	}
	if a, ok := ftl.As[acrossCensus](r.Scheme); ok {
		st := a.Stats()
		res.Across = &st
	}
	if e, _ := entryOf(r.Kind); e.cmtInResult {
		if c, ok := ftl.As[cmtCensus](r.Scheme); ok {
			res.CMT = c.CMTStats()
		}
	}
}

// ResetMeasurement zeroes the device's timelines and counters and the
// scheme's statistics (on the scheme or, when wrapped, beneath it), keeping
// mapping and wear state: what every replay, single-device or fleet, does
// before it measures.
func (r *Runner) ResetMeasurement() {
	r.Scheme.Device().ResetMeasurement()
	if sr, ok := ftl.As[statsResetter](r.Scheme); ok {
		sr.ResetStats()
	}
}

// ReplayQDCtx is ReplayQD with cancellation. The context is polled every
// cancelCheckMask+1 requests, so long replays driven by a job scheduler can
// be stopped promptly without the hot path paying a per-request check.
func (r *Runner) ReplayQDCtx(ctx context.Context, reqs []trace.Request, qd int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dev := r.Scheme.Device()
	res, buckets := r.beginReplay()
	spp := r.Conf.SectorsPerPage()
	var inflight []float64 // completion times of outstanding requests (QD mode)
	if qd > 0 {
		inflight = make([]float64, 0, qd)
	}

	// Observability (nil-guarded: the untraced replay pays one branch per
	// site and zero allocations). The sampler tracks its own in-flight set
	// so queue depth is observable even in open-loop mode.
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
		obsInflight      []float64
		hostPagesWritten int64
		obsLastDone      float64
		fill             func(*obs.Sample)
	)
	if smp != nil {
		fill = func(sm *obs.Sample) {
			r.fillSample(sm, res, len(obsInflight), hostPagesWritten)
		}
	}

	done := ctx.Done() // nil for Background: the select below always falls through
	for i, req := range reqs {
		if i&cancelCheckMask == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("sim: replay cancelled at request %d/%d: %w", i, len(reqs), ctx.Err())
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
		if smp != nil {
			// Retire the sampler's in-flight view and advance its clock
			// before dispatch, so a boundary sample sees the state as of
			// this arrival, excluding the request being dispatched.
			kept := obsInflight[:0]
			for _, c := range obsInflight {
				if c > issue {
					kept = append(kept, c)
				}
			}
			obsInflight = kept
			smp.Tick(issue, fill)
		}
		class := req.Classify(spp)
		if trc != nil {
			trc.RequestStart(int64(i), req.Op == trace.OpWrite, uint8(class),
				req.Offset, int64(req.Count), int(req.LastLPN(spp)-req.FirstLPN(spp))+1, issue)
		}
		var (
			done float64
			err  error
		)
		wBefore := dev.Count.DataWrites + dev.Count.GCWrites
		rBefore := dev.Count.DataReads + dev.Count.GCReads
		switch req.Op {
		case trace.OpWrite:
			done, err = r.Scheme.Write(req, issue)
		case trace.OpRead:
			done, err = r.Scheme.Read(req, issue)
		default:
			err = fmt.Errorf("sim: request %d has unknown op %d", i, req.Op)
		}
		if err != nil {
			return nil, fmt.Errorf("sim: replaying request %d (%v): %w", i, req, err)
		}
		if chk != nil {
			var cerr error
			if req.Op == trace.OpWrite {
				cerr = chk.OnWrite(req)
			} else {
				cerr = chk.OnRead(req)
			}
			if cerr != nil {
				return nil, fmt.Errorf("sim: verification failed after request %d (%v): %w", i, req, cerr)
			}
		}
		if qd > 0 {
			inflight = append(inflight, done)
		}
		// Latency is measured from the trace arrival, so queueing delay in
		// the host queue (QD mode) counts toward the response time.
		lat := done - req.Time
		if trc != nil {
			trc.RequestEnd(int64(i), req.Op == trace.OpWrite, done)
		}
		if smp != nil {
			smp.Note(req.Op == trace.OpWrite, lat)
			if req.Op == trace.OpWrite {
				hostPagesWritten += req.LastLPN(spp) - req.FirstLPN(spp) + 1
			}
			obsInflight = append(obsInflight, done)
			if done > obsLastDone {
				obsLastDone = done
			}
		}
		res.foldRecord(buckets, reqRecord{
			op:      req.Op,
			class:   class,
			count:   req.Count,
			lat:     lat,
			flushes: (dev.Count.DataWrites + dev.Count.GCWrites) - wBefore,
			reads:   (dev.Count.DataReads + dev.Count.GCReads) - rBefore,
		})
	}

	if chk != nil {
		if err := chk.Finish(); err != nil {
			return nil, fmt.Errorf("sim: end-of-replay verification failed: %w", err)
		}
	}

	r.finishReplay(res, reqs)
	if smp != nil {
		// The run ends when the last completion lands: bus transfers can
		// finish after the chip-busy horizon, and arrivals can trail the
		// horizon on idle tails.
		end := dev.Sched.Horizon()
		if obsLastDone > end {
			end = obsLastDone
		}
		if n := len(reqs); n > 0 && reqs[n-1].Time > end {
			end = reqs[n-1].Time
		}
		// Retire everything that completes by then so the closing sample
		// reports the drained queue.
		kept := obsInflight[:0]
		for _, c := range obsInflight {
			if c > end {
				kept = append(kept, c)
			}
		}
		obsInflight = kept
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
