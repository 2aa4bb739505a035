// Package ftl provides the machinery shared by every flash-translation-layer
// scheme in the repository: the Device facade that charges flash operations
// to chip timelines and operation counters, the dynamic page allocator with
// greedy garbage collection, the flash-resident translation-page store used
// by cached mapping tables, and the baseline page-level FTL scheme itself.
package ftl

import (
	"fmt"

	"across/internal/clock"
	"across/internal/flash"
	"across/internal/obs"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// Tag kinds: the OOB namespace written with every programmed page, so GC can
// route a migrated page back to the mapping structure that owns it.
const (
	// TagData marks a normal data page; Key is the owning LPN.
	TagData uint8 = iota
	// TagAcross marks an across-page area page; Key is the AMT index.
	TagAcross
	// TagMap marks a flash-resident translation page; Key is the
	// translation-page id within the owning scheme's MapStore.
	TagMap
	// TagMRSM marks an MRSM sub-page-packed data page; the owner resolves
	// migrations through its per-PPN slot table, so Key is unused.
	TagMRSM
)

// OpClass attributes a flash operation for the Map/Data split of Fig 10 and
// the GC accounting of Fig 11.
type OpClass uint8

const (
	// OpData is host-caused user-data traffic (including RMW reads).
	OpData OpClass = iota
	// OpMap is mapping-table traffic (CMT miss loads and dirty flushes).
	OpMap
	// OpGC is garbage-collection migration traffic.
	OpGC
)

// Counters accumulates every externally visible cost of a run. The sim
// engine snapshots them after warm-up and reports deltas.
type Counters struct {
	DataReads  int64
	DataWrites int64
	MapReads   int64
	MapWrites  int64
	GCReads    int64
	GCWrites   int64
	Erases     int64

	// DRAMAccesses counts mapping-structure accesses in controller DRAM
	// (Fig 12b). Tree-based schemes charge one access per node visited.
	DRAMAccesses int64

	// GCInvocations counts GC victim selections.
	GCInvocations int64
}

// FlashReads returns total flash page reads (Fig 10b, Map+Data).
func (c Counters) FlashReads() int64 { return c.DataReads + c.MapReads + c.GCReads }

// FlashWrites returns total flash page programs (Fig 10a, Map+Data).
func (c Counters) FlashWrites() int64 { return c.DataWrites + c.MapWrites + c.GCWrites }

// Sub subtracts a baseline snapshot, yielding the delta for a measured phase.
func (c Counters) Sub(base Counters) Counters {
	return Counters{
		DataReads:     c.DataReads - base.DataReads,
		DataWrites:    c.DataWrites - base.DataWrites,
		MapReads:      c.MapReads - base.MapReads,
		MapWrites:     c.MapWrites - base.MapWrites,
		GCReads:       c.GCReads - base.GCReads,
		GCWrites:      c.GCWrites - base.GCWrites,
		Erases:        c.Erases - base.Erases,
		DRAMAccesses:  c.DRAMAccesses - base.DRAMAccesses,
		GCInvocations: c.GCInvocations - base.GCInvocations,
	}
}

// Device is the controller-side facade over the flash array: it executes
// NAND commands, charges their latency to the owning chip's timeline (and,
// when TransferTime is configured, the shared channel bus), and attributes
// them to counters. Schemes never touch the array directly.
type Device struct {
	Conf  *ssdconf.Config
	Array *flash.Array
	Sched *clock.Scheduler
	// Bus holds one timeline per channel; page transfers serialise on it
	// when Conf.TransferTime > 0. Chips on one channel then contend for the
	// bus exactly as on real hardware.
	Bus   *clock.Scheduler
	Count Counters

	// trc receives observability events when tracing is enabled; traceOn
	// caches the nil check so the disabled hot path pays one branch.
	trc     obs.Tracer
	traceOn bool
}

// SetTracer installs (or, with nil, removes) the observability tracer. The
// tracer observes flash command service spans and — through Tracer() — lets
// the allocator and schemes emit GC, across-plan and cache events.
func (d *Device) SetTracer(t obs.Tracer) {
	if obs.IsNop(t) {
		t = nil
	}
	d.trc = t
	d.traceOn = t != nil
}

// Tracer returns the installed tracer, nil when tracing is off. Emission
// sites guard with a nil check, keeping the disabled cost to one branch.
func (d *Device) Tracer() obs.Tracer {
	if d.traceOn {
		return d.trc
	}
	return nil
}

// NewDevice builds an erased device for a validated configuration.
func NewDevice(conf *ssdconf.Config) (*Device, error) {
	arr, err := flash.NewArray(conf)
	if err != nil {
		return nil, err
	}
	return &Device{
		Conf:  conf,
		Array: arr,
		Sched: clock.NewScheduler(conf.Chips()),
		Bus:   clock.NewScheduler(conf.Channels),
	}, nil
}

// channelOf returns the bus a chip hangs off.
func (d *Device) channelOf(chip int) int { return chip / d.Conf.ChipsPerChan }

func (d *Device) countRead(class OpClass) {
	switch class {
	case OpData:
		d.Count.DataReads++
	case OpMap:
		d.Count.MapReads++
	case OpGC:
		d.Count.GCReads++
	}
}

func (d *Device) countWrite(class OpClass) {
	switch class {
	case OpData:
		d.Count.DataWrites++
	case OpMap:
		d.Count.MapWrites++
	case OpGC:
		d.Count.GCWrites++
	}
}

// Read performs a page read at time now and returns its completion time:
// the cell read on the chip, then (if modelled) the data transfer over the
// channel bus.
func (d *Device) Read(p flash.PPN, now float64, class OpClass) (float64, error) {
	if err := d.Array.Read(p); err != nil {
		return now, err
	}
	d.countRead(class)
	chip := int(d.Array.Geo.ChipOf(p))
	done := d.Sched.Schedule(chip, now, d.Conf.ReadTime)
	if d.traceOn {
		// The chip-occupancy span: the cell read, excluding bus transfer.
		d.trc.FlashOp(obs.FlashRead, uint8(class), chip, int64(p), done-d.Conf.ReadTime, done)
	}
	if d.Conf.TransferTime > 0 {
		done = d.Bus.Schedule(d.channelOf(chip), done, d.Conf.TransferTime)
	}
	return done, nil
}

// Program writes a page with its OOB tag at time now and returns the
// completion time: the data transfer over the channel bus (if modelled),
// then the cell program on the chip.
func (d *Device) Program(p flash.PPN, tag flash.Tag, now float64, class OpClass) (float64, error) {
	return d.programScaled(p, tag, now, class, 1)
}

// ProgramScaled writes a page whose program time is scaled by frac in
// (0,1] — MRSM programs only the sub-page regions a request touches (its
// multiregional pages admit region-granularity programming), so a partially
// filled packed page costs proportionally less time. The operation still
// counts as one flash write and consumes the whole page.
func (d *Device) ProgramScaled(p flash.PPN, tag flash.Tag, now float64, class OpClass, frac float64) (float64, error) {
	if frac <= 0 || frac > 1 {
		return now, fmt.Errorf("ftl: program fraction %v out of (0,1]", frac)
	}
	return d.programScaled(p, tag, now, class, frac)
}

func (d *Device) programScaled(p flash.PPN, tag flash.Tag, now float64, class OpClass, frac float64) (float64, error) {
	if err := d.Array.Program(p, tag); err != nil {
		return now, err
	}
	d.countWrite(class)
	chip := int(d.Array.Geo.ChipOf(p))
	start := now
	if d.Conf.TransferTime > 0 {
		start = d.Bus.Schedule(d.channelOf(chip), now, d.Conf.TransferTime*frac)
	}
	done := d.Sched.Schedule(chip, start, d.Conf.ProgramTime*frac)
	if d.traceOn {
		d.trc.FlashOp(obs.FlashProgram, uint8(class), chip, int64(p), done-d.Conf.ProgramTime*frac, done)
	}
	return done, nil
}

// Erase erases a block at time now and returns the completion time.
func (d *Device) Erase(b flash.BlockID, now float64) (float64, error) {
	if err := d.Array.Erase(b); err != nil {
		return now, err
	}
	d.Count.Erases++
	chip := int(d.Array.Geo.ChipOfPlane(d.Array.Geo.PlaneOfBlock(b)))
	done := d.Sched.Schedule(chip, now, d.Conf.EraseTime)
	if d.traceOn {
		d.trc.FlashOp(obs.FlashErase, uint8(OpGC), chip, int64(d.Array.Geo.FirstPage(b)), done-d.Conf.EraseTime, done)
	}
	return done, nil
}

// Invalidate marks a data page stale (no time cost; pure metadata).
func (d *Device) Invalidate(p flash.PPN) error { return d.Array.Invalidate(p) }

// DRAMAccess charges n mapping-structure accesses in DRAM and returns the
// serial latency they add to the critical path.
func (d *Device) DRAMAccess(n int) float64 {
	d.Count.DRAMAccesses += int64(n)
	return float64(n) * d.Conf.CacheAccess
}

// ResetMeasurement zeroes timelines and counters after warm-up while
// preserving array and mapping state. Erase counters inside the array keep
// accumulating (they are physical), so callers needing per-phase erase
// deltas snapshot Counters instead.
func (d *Device) ResetMeasurement() {
	d.Sched.Reset()
	d.Bus.Reset()
	d.Count = Counters{}
}

// Scheme is one FTL design under test. Write and Read service a host
// request arriving at time now and return its completion time.
type Scheme interface {
	Name() string
	Write(r trace.Request, now float64) (float64, error)
	Read(r trace.Request, now float64) (float64, error)
	// TableBytes reports the mapping-structure memory footprint (Fig 12a).
	TableBytes() int64
	// Device exposes the underlying device for metric collection.
	Device() *Device
}

// errf wraps scheme-internal failures with the scheme name for diagnosis.
func errf(scheme string, err error, format string, args ...any) error {
	return fmt.Errorf("%s: %s: %w", scheme, fmt.Sprintf(format, args...), err)
}
