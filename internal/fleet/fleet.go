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

// Volume is N independent simulated SSDs behind one logical address space,
// every one a fork of the same sim.Checkpoint (FromCheckpoint): an aged
// runner's for a warm volume, sim.FreshCheckpoint for a cold one.
type Volume struct {
	Kind    sim.SchemeKind
	Conf    *ssdconf.Config // per-device configuration (all devices identical)
	Runners []*sim.Runner

	geo geometry
}

// FromCheckpoint builds a volume of spec.Devices forks of one checkpoint:
// the scheme kind and device configuration are the checkpoint's, and every
// device starts in its state, with nothing verified again.
func FromCheckpoint(cp *sim.Checkpoint, spec Spec) (*Volume, error) {
	conf := cp.Conf
	geo, err := resolveGeometry(&conf, spec)
	if err != nil {
		return nil, err
	}
	v := &Volume{Kind: cp.Kind, Conf: &conf, geo: geo, Runners: make([]*sim.Runner, spec.Devices)}
	for i := range v.Runners {
		if v.Runners[i], err = cp.Fork(); err != nil {
			return nil, fmt.Errorf("fleet: forking device %d from checkpoint: %w", i, err)
		}
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

// Replay runs a logical trace against the volume through sim's host loop
// (sim.Measured.Drive) and collects a fleet Result. Each logical request is
// split into per-device fragments, every fragment is dispatched to its
// device at the request's issue time, and the request completes when its
// slowest fragment does, with the flash traffic of all of them attributed
// to it. qd bounds the fleet-level queue depth — at most qd logical
// requests are outstanding, the closed-loop mode the saturation sweep
// drives; qd <= 0 replays open-loop. The Result is deterministic by
// construction (DESIGN §14). ctx is polled every 64 requests.
func (v *Volume) Replay(ctx context.Context, reqs []trace.Request, qd int) (*Result, error) {
	res := v.beginReplay()
	spp := v.Conf.SectorsPerPage()
	var subs []SubRequest
	serve := func(i int, req trace.Request, issue float64) (sim.Served, error) {
		var err error
		if subs, err = v.geo.split(req, subs[:0]); err != nil {
			return sim.Served{}, fmt.Errorf("request %d: %w", i, err)
		}
		join := sim.Served{Done: issue}
		for _, sub := range subs {
			s, err := v.Runners[sub.Device].Dispatch(sub.Req, issue)
			if err != nil {
				return sim.Served{}, fmt.Errorf("request %d: device %d servicing %v: %w", i, sub.Device, sub.Req, err)
			}
			if s.Done > join.Done {
				join.Done = s.Done
			}
			join.Flushes += s.Flushes
			join.Reads += s.Reads
			res.noteSub(sub, spp)
		}
		return join, nil
	}
	if err := res.Drive(ctx, reqs, qd, spp, serve, v.horizon); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	v.reportDevices(res)
	return res, nil
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
		res.WarmupWrites += r.WarmupWrites()
	}
	return res
}

// noteSub records a fragment's routing in the per-device report.
func (res *Result) noteSub(sub SubRequest, spp int) {
	res.SubClasses[sub.Req.Classify(spp)]++
	d := &res.PerDevice[sub.Device]
	d.SubRequests++
	d.Sectors += int64(sub.Req.Count)
}

// horizon is the volume's idle horizon: the latest of its devices'.
func (v *Volume) horizon() float64 {
	var end float64
	for _, r := range v.Runners {
		end = max(end, r.Scheme.Device().Sched.Horizon())
	}
	return end
}

// reportDevices collects each device's end-of-run state.
func (v *Volume) reportDevices(res *Result) {
	for i, r := range v.Runners {
		dev := r.Scheme.Device()
		d := &res.PerDevice[i]
		d.Counters = dev.Count
		mean, sd, lo, hi := dev.Array.WearStats()
		d.Wear = sim.WearSummary{Mean: mean, StdDev: sd, Min: lo, Max: hi}
		for c := 0; c < dev.Sched.Chips(); c++ {
			d.BusyMs += dev.Sched.BusyTime(c)
		}
	}
}
