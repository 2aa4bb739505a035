package fleet

import (
	"context"
	"fmt"

	"across/internal/check"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// Spec describes a fleet volume: device count, layout, and the RAID chunk
// size (ignored by concat). The zero ChunkSectors defaults to DefaultChunkKB.
type Spec struct {
	Devices      int
	Layout       Layout
	ChunkSectors int64
}

// DefaultChunkKB is the stripe chunk used when a spec leaves it zero: 64 KiB,
// a common RAID-0 default, comfortably above every supported page size.
const DefaultChunkKB = 64

// Validate checks the spec against a device configuration without building
// any devices — the cheap submit-time check for services.
func (s Spec) Validate(conf ssdconf.Config) error {
	_, err := resolveGeometry(&conf, s)
	return err
}

// LogicalSectors returns the usable capacity of a volume of this spec over
// devices of the given configuration, without building any devices.
func (s Spec) LogicalSectors(conf ssdconf.Config) (int64, error) {
	geo, err := resolveGeometry(&conf, s)
	if err != nil {
		return 0, err
	}
	return geo.logicalSectors(), nil
}

// Volume is N independent simulated SSDs behind one logical address space.
// Build one with New (fresh devices) or FromSnapshot (fork every device
// from a warm single-device checkpoint), then Age and Replay.
type Volume struct {
	Kind    sim.SchemeKind
	Conf    *ssdconf.Config // per-device configuration (all devices identical)
	Runners []*sim.Runner

	geo geometry
}

// cancelCheckMask mirrors the sim engine's cancellation cadence: the fleet
// loop polls its context every cancelCheckMask+1 logical requests.
const cancelCheckMask = 63

// New builds a fleet of fresh devices of one scheme kind and configuration.
func New(kind sim.SchemeKind, conf ssdconf.Config, spec Spec) (*Volume, error) {
	geo, err := resolveGeometry(&conf, spec)
	if err != nil {
		return nil, err
	}
	v := &Volume{Kind: kind, Conf: &conf, geo: geo}
	for i := 0; i < spec.Devices; i++ {
		r, err := sim.NewRunner(kind, conf)
		if err != nil {
			return nil, fmt.Errorf("fleet: building device %d: %w", i, err)
		}
		v.Runners = append(v.Runners, r)
	}
	return v, nil
}

// FromSnapshot builds a fleet by restoring every device from one warm
// single-device snapshot (scheme kind and configuration come from the
// blob): the fleet analogue of the fork-from-checkpoint sweep — one verified
// open and N forks instead of N agings, with state identical to aging each
// device afresh (aging is seeded, so same-config devices age identically).
func FromSnapshot(blob []byte, spec Spec) (*Volume, error) {
	cp, err := sim.OpenCheckpoint(blob)
	if err != nil {
		return nil, fmt.Errorf("fleet: opening the checkpoint: %w", err)
	}
	return FromCheckpoint(cp, spec)
}

// FromCheckpoint is FromSnapshot for a checkpoint the caller already holds
// open: every device is a fork of it, and nothing is verified again.
func FromCheckpoint(cp *sim.Checkpoint, spec Spec) (*Volume, error) {
	conf := cp.Conf
	geo, err := resolveGeometry(&conf, spec)
	if err != nil {
		return nil, err
	}
	v := &Volume{Kind: cp.Kind, Conf: &conf, geo: geo, Runners: make([]*sim.Runner, spec.Devices)}
	if err := v.forkWarm(cp, 0); err != nil {
		return nil, err
	}
	return v, nil
}

func resolveGeometry(conf *ssdconf.Config, spec Spec) (geometry, error) {
	if err := conf.Validate(); err != nil {
		return geometry{}, err
	}
	chunk := spec.ChunkSectors
	if chunk == 0 {
		chunk = DefaultChunkKB * 1024 / ssdconf.SectorBytes
	}
	return newGeometry(spec.Layout, spec.Devices, chunk, conf.LogicalSectors())
}

// Devices returns the physical device count.
func (v *Volume) Devices() int { return v.geo.devices }

// Layout returns the volume's layout.
func (v *Volume) Layout() Layout { return v.geo.layout }

// ChunkSectors returns the resolved stripe chunk in sectors (the whole
// device for concat).
func (v *Volume) ChunkSectors() int64 { return v.geo.chunkSectors }

// LogicalSectors returns the volume's usable capacity in sectors — the
// address-space bound for trace generation (mirrored capacity counts once).
func (v *Volume) LogicalSectors() int64 { return v.geo.logicalSectors() }

// Split appends the per-device fragments of one logical request to out and
// returns it (exported for the tiling property tests; Replay uses the same
// function).
func (v *Volume) Split(r trace.Request, out []SubRequest) ([]SubRequest, error) {
	return v.geo.split(r, out)
}

// Age warms every device to the same §4.1 state: device 0 ages through its
// scheme's ordinary write path (polling ctx), and the remaining devices fork
// from a checkpoint of it — byte-identical state at a fraction of the cost,
// since seeded aging would produce the same state per device anyway. The
// checkpoint is taken in memory: device 0 was warmed here, so there is no
// blob to encode or verify.
func (v *Volume) Age(ctx context.Context, a sim.Aging) error {
	if err := v.Runners[0].AgeCtx(ctx, a); err != nil {
		return err
	}
	if len(v.Runners) == 1 {
		return nil
	}
	cp, err := v.Runners[0].Checkpoint()
	if err != nil {
		return fmt.Errorf("fleet: checkpointing aged device 0: %w", err)
	}
	return v.forkWarm(cp, 1)
}

// forkWarm replaces devices from..N-1 with forks of one open checkpoint.
func (v *Volume) forkWarm(cp *sim.Checkpoint, from int) error {
	for i := from; i < len(v.Runners); i++ {
		r, err := cp.Fork()
		if err != nil {
			return fmt.Errorf("fleet: forking device %d from checkpoint: %w", i, err)
		}
		v.Runners[i] = r
	}
	return nil
}

// WarmSnapshot serialises device 0's state — after Age, the single-device
// checkpoint every other device was forked from (all devices are
// byte-identical until a replay differentiates them).
func (v *Volume) WarmSnapshot() ([]byte, error) { return v.Runners[0].Snapshot() }

// Audit runs the device-wide invariant auditor over every device (mapping↔
// flash ownership, valid-count recounts, op attribution — DESIGN §9).
func (v *Volume) Audit() error {
	for i, r := range v.Runners {
		chk, err := check.New(r.Scheme, check.Options{})
		if err != nil {
			return fmt.Errorf("fleet: device %d: %w", i, err)
		}
		if err := chk.Audit(); err != nil {
			return fmt.Errorf("fleet: device %d failed audit: %w", i, err)
		}
	}
	return nil
}

// subOutcome is what one dispatched fragment contributes to the logical
// join: its completion time and its device-counter deltas.
type subOutcome struct {
	done           float64
	flushes, reads int64
}

// step dispatches one fragment to its device at time issue and returns the
// outcome. Counter deltas attribute flash data traffic (host + GC) to the
// logical request, mirroring the sim engine's per-request attribution.
func (v *Volume) step(sub SubRequest, issue float64) (subOutcome, error) {
	r := v.Runners[sub.Device]
	dev := r.Scheme.Device()
	wBefore := dev.Count.DataWrites + dev.Count.GCWrites
	rBefore := dev.Count.DataReads + dev.Count.GCReads
	var (
		done float64
		err  error
	)
	switch sub.Req.Op {
	case trace.OpWrite:
		done, err = r.Scheme.Write(sub.Req, issue)
	case trace.OpRead:
		done, err = r.Scheme.Read(sub.Req, issue)
	default:
		err = fmt.Errorf("fleet: unknown op %d", sub.Req.Op)
	}
	if err != nil {
		return subOutcome{}, fmt.Errorf("fleet: device %d servicing %v: %w", sub.Device, sub.Req, err)
	}
	return subOutcome{
		done:    done,
		flushes: (dev.Count.DataWrites + dev.Count.GCWrites) - wBefore,
		reads:   (dev.Count.DataReads + dev.Count.GCReads) - rBefore,
	}, nil
}

// beginReplay resets every device's measurement state (timelines and
// counters; mapping and wear state persist) and seeds the Result.
func (v *Volume) beginReplay() *Result {
	res := &Result{
		Scheme:       v.Runners[0].Scheme.Name(),
		Layout:       v.geo.layout,
		Devices:      v.geo.devices,
		ChunkSectors: v.geo.chunkSectors,
		PerDevice:    make([]DeviceReport, v.geo.devices),
	}
	for i, r := range v.Runners {
		r.ResetMeasurement()
		res.PerDevice[i].Device = i
	}
	return res
}

// foldLogical applies one logical request's joined outcome to the Result,
// in logical-request order.
func (res *Result) foldLogical(req trace.Request, class trace.Class, lat float64, subs int64, flushes, reads int64) {
	res.Requests++
	res.LogicalClasses[class]++
	res.SubRequests += subs
	b := &res.ByBucket[req.Op][class]
	b.Requests++
	b.Sectors += int64(req.Count)
	b.LatencySum += lat
	b.Flushes += flushes
	b.FlashReads += reads
	if req.Op == trace.OpWrite {
		res.WriteCount++
		res.WriteLatencySum += lat
		res.WriteLat.Add(lat)
	} else {
		res.ReadCount++
		res.ReadLatencySum += lat
		res.ReadLat.Add(lat)
	}
}

// noteSub records a fragment's routing in the per-device report.
func (res *Result) noteSub(sub SubRequest, spp int) {
	res.SubClasses[sub.Req.Classify(spp)]++
	d := &res.PerDevice[sub.Device]
	d.SubRequests++
	d.Sectors += int64(sub.Req.Count)
}

// finishReplay collects end-of-run per-device state and the makespan. The
// makespan matches the sim engine's definition — first arrival to the later
// of the last arrival and any device's idle horizon — so a 1-device concat
// volume reports exactly what a bare sim.Runner would.
func (v *Volume) finishReplay(res *Result, reqs []trace.Request) {
	var end float64
	for i, r := range v.Runners {
		dev := r.Scheme.Device()
		d := &res.PerDevice[i]
		d.Counters = dev.Count
		mean, sd, lo, hi := dev.Array.WearStats()
		d.Wear = sim.WearSummary{Mean: mean, StdDev: sd, Min: lo, Max: hi}
		for c := 0; c < dev.Sched.Chips(); c++ {
			d.BusyMs += dev.Sched.BusyTime(c)
		}
		if h := dev.Sched.Horizon(); h > end {
			end = h
		}
		res.WarmupWrites += r.WarmupWrites()
	}
	if n := len(reqs); n > 0 {
		res.TraceSpanMs = reqs[n-1].Time - reqs[0].Time
		if reqs[n-1].Time > end {
			end = reqs[n-1].Time
		}
		res.MeasuredSpanMs = end - reqs[0].Time
	}
}

// Replay runs a logical trace against the volume and collects a fleet
// Result. qd bounds the fleet-level queue depth: at most qd logical
// requests are outstanding, and a request whose arrival finds the queue
// full defers to the earliest logical completion — the closed-loop mode the
// saturation sweep drives. qd <= 0 replays open-loop. Logical requests are
// taken in trace order and each fragment is dispatched inline, so the
// Result is deterministic by construction (DESIGN §14). ctx is polled every
// 64 requests.
func (v *Volume) Replay(ctx context.Context, reqs []trace.Request, qd int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := v.beginReplay()
	spp := v.Conf.SectorsPerPage()
	var (
		inflight []float64
		subs     []SubRequest
	)
	if qd > 0 {
		inflight = make([]float64, 0, qd)
	}
	done := ctx.Done()
	for i, req := range reqs {
		if i&cancelCheckMask == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("fleet: replay cancelled at request %d/%d: %w", i, len(reqs), ctx.Err())
			default:
			}
		}
		issue := req.Time
		if qd > 0 {
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
		var err error
		subs, err = v.geo.split(req, subs[:0])
		if err != nil {
			return nil, fmt.Errorf("fleet: request %d: %w", i, err)
		}
		join := issue
		var flushes, reads int64
		for _, sub := range subs {
			out, err := v.step(sub, issue)
			if err != nil {
				return nil, fmt.Errorf("fleet: request %d: %w", i, err)
			}
			if out.done > join {
				join = out.done
			}
			flushes += out.flushes
			reads += out.reads
			res.noteSub(sub, spp)
		}
		if qd > 0 {
			inflight = append(inflight, join)
		}
		res.foldLogical(req, req.Classify(spp), join-req.Time, int64(len(subs)), flushes, reads)
	}
	v.finishReplay(res, reqs)
	return res, nil
}
