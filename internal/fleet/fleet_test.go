package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

func fleetConf() ssdconf.Config {
	c := ssdconf.Table1()
	c.Channels = 4
	c.ChipsPerChan = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 1
	c.BlocksPerPlane = 64
	c.PagesPerBlock = 32
	return c
}

func fleetTrace(t *testing.T, v *Volume, scale float64) []trace.Request {
	t.Helper()
	p := workload.LunProfiles()[0].Scale(scale)
	reqs, err := workload.Generate(p, v.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// buildVolume forks a volume of fresh devices.
func buildVolume(t *testing.T, kind sim.SchemeKind, spec Spec) *Volume {
	t.Helper()
	cp, err := sim.FreshCheckpoint(kind, fleetConf())
	if err != nil {
		t.Fatal(err)
	}
	v, err := FromCheckpoint(cp, spec)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// assertFleetIdentical asserts two fleet Results are byte-identical, both
// structurally and through the JSON encoding the daemon and bench emit.
func assertFleetIdentical(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: Result diverged from the reference", label)
		if want.Requests != got.Requests || want.SubRequests() != got.SubRequests() {
			t.Errorf("%s: requests %d/%d vs %d/%d", label, want.Requests, want.SubRequests(), got.Requests, got.SubRequests())
		}
		if want.ReadLatencySum != got.ReadLatencySum || want.WriteLatencySum != got.WriteLatencySum {
			t.Errorf("%s: latency sums (%g,%g) vs (%g,%g)", label,
				want.ReadLatencySum, want.WriteLatencySum, got.ReadLatencySum, got.WriteLatencySum)
		}
		if want.Counters() != got.Counters() {
			t.Errorf("%s: counters %+v vs %+v", label, want.Counters(), got.Counters())
		}
		if !reflect.DeepEqual(want.PerDevice, got.PerDevice) {
			t.Errorf("%s: per-device reports diverged", label)
		}
		return
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Errorf("%s: JSON encodings differ", label)
	}
}

// TestFleetDeterminismMatrix is the fleet analogue of the sim engine's
// determinism matrix: for every layout × queue depth, two freshly built
// volumes replaying the same trace must produce byte-identical Results.
func TestFleetDeterminismMatrix(t *testing.T) {
	specs := []Spec{
		{Devices: 3, Layout: LayoutConcat},
		{Devices: 4, Layout: LayoutRAID0, ChunkSectors: 32},
		{Devices: 4, Layout: LayoutRAID10, ChunkSectors: 16},
	}
	qds := []int{0, 8}
	scale := 0.02
	kind := sim.KindAcross
	if testing.Short() {
		specs = specs[1:2]
		scale = 0.01
	}
	ctx := context.Background()
	for _, spec := range specs {
		ref := buildVolume(t, kind, spec)
		reqs := fleetTrace(t, ref, scale)
		for _, qd := range qds {
			label := string(spec.Layout) + "/qd=" + itoa(qd)
			first, err := buildVolume(t, kind, spec).Replay(ctx, reqs, qd)
			if err != nil {
				t.Fatalf("%s: first run: %v", label, err)
			}
			if first.Requests != int64(len(reqs)) {
				t.Fatalf("%s: replayed %d of %d requests", label, first.Requests, len(reqs))
			}
			second, err := buildVolume(t, kind, spec).Replay(ctx, reqs, qd)
			if err != nil {
				t.Fatalf("%s: second run: %v", label, err)
			}
			assertFleetIdentical(t, first, second, label)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestFleetConcatSingleDeviceMatchesSim pins the fleet layer's zero-cost
// abstraction: a 1-device concat volume issues exactly the scheme calls a
// bare sim.Runner would, through the same host loop, so for every scheme
// open- and closed-loop the whole measured core — counts, latency sums and
// histograms, buckets, spans — must equal the single-device engine's.
func TestFleetConcatSingleDeviceMatchesSim(t *testing.T) {
	conf := fleetConf()
	for _, kind := range append(sim.Kinds(), sim.KindDFTL) {
		for _, qd := range []int{0, 1, 4} {
			label := string(kind) + "/qd=" + itoa(qd)
			v := buildVolume(t, kind, Spec{Devices: 1, Layout: LayoutConcat})
			reqs := fleetTrace(t, v, 0.02)
			fres, err := v.Replay(context.Background(), reqs, qd)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			r, err := sim.NewRunner(kind, conf)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := r.ReplayQD(reqs, qd)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			if fres.Measured != sres.Measured {
				t.Errorf("%s: measured core diverged", label)
				f, s := &fres.Measured, &sres.Measured
				t.Errorf("%s: requests %d/%d/%d vs %d/%d/%d, latency sums (%g,%g) vs (%g,%g)", label,
					f.Requests, f.ReadCount, f.WriteCount, s.Requests, s.ReadCount, s.WriteCount,
					f.ReadLatencySum, f.WriteLatencySum, s.ReadLatencySum, s.WriteLatencySum)
				t.Errorf("%s: p50/p99 read (%g,%g) vs (%g,%g), write (%g,%g) vs (%g,%g)", label,
					f.ReadLat.P50(), f.ReadLat.P99(), s.ReadLat.P50(), s.ReadLat.P99(),
					f.WriteLat.P50(), f.WriteLat.P99(), s.WriteLat.P50(), s.WriteLat.P99())
				t.Errorf("%s: spans (%g,%g) vs (%g,%g), buckets %+v vs %+v", label,
					f.TraceSpanMs, f.MeasuredSpanMs, s.TraceSpanMs, s.MeasuredSpanMs, f.ByBucket, s.ByBucket)
			}
			if fres.SubRequests() != fres.Requests || fres.SubClasses != fres.LogicalClasses() {
				t.Errorf("%s: 1-device concat re-cut requests: %d sub-requests %v for %d requests %v", label,
					fres.SubRequests(), fres.SubClasses, fres.Requests, fres.LogicalClasses())
			}
			if fres.Counters() != sres.Counters {
				t.Errorf("%s: counters diverged: fleet %+v vs sim %+v", label, fres.Counters(), sres.Counters)
			}
		}
	}
}

// TestFleetSteadyStateReplayAllocations is the fleet analogue of the sim
// engine's allocation budget: once the devices are built, a replay
// allocates a handful of objects — the Result, the per-device reports, the
// loop's closures and scratch — however many requests it serves.
func TestFleetSteadyStateReplayAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector instruments allocations")
	}
	const (
		maxPerReplay = 16
		maxPerReq    = 0.05
	)
	specs := []Spec{
		{Devices: 1, Layout: LayoutConcat},
		{Devices: 4, Layout: LayoutRAID0, ChunkSectors: 32},
		{Devices: 4, Layout: LayoutRAID10, ChunkSectors: 16},
	}
	for _, kind := range append(sim.Kinds(), sim.KindDFTL) {
		for _, spec := range specs {
			label := string(kind) + "/" + string(spec.Layout) + "x" + itoa(spec.Devices)
			v := buildVolume(t, kind, spec)
			reqs := fleetTrace(t, v, 0.02)
			if _, err := v.Replay(context.Background(), reqs, 0); err != nil { // warm scratch buffers
				t.Fatalf("%s: %v", label, err)
			}
			var replayErr error
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := v.Replay(context.Background(), reqs, 0); err != nil {
					replayErr = err
				}
			})
			if replayErr != nil {
				t.Fatalf("%s: %v", label, replayErr)
			}
			perReq := allocs / float64(len(reqs))
			t.Logf("%s: %.0f allocs per replay of %d requests (%.4f/request)", label, allocs, len(reqs), perReq)
			if allocs > maxPerReplay || perReq > maxPerReq {
				t.Errorf("%s: a replay allocates %.0f objects (%.4f/request), ceiling %d (%.2f/request) — hot path regressed",
					label, allocs, perReq, maxPerReplay, maxPerReq)
			}
		}
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which allocation counts measure the detector, not the simulator.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// TestFleetAgeForksIdenticalDevices checks the warm volume: every device of
// a volume forked from an aged runner's checkpoint must serialise to that
// runner's own snapshot, and a volume forked from the checkpoint the blob
// opens must replay byte-identically to it.
func TestFleetAgeForksIdenticalDevices(t *testing.T) {
	spec := Spec{Devices: 2, Layout: LayoutRAID0, ChunkSectors: 32}
	aging := sim.DefaultAging()
	aging.ValidFrac = 0.2
	aging.UsedFrac = 0.5

	r, err := sim.NewRunner(sim.KindFTL, fleetConf())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Age(aging); err != nil {
		t.Fatal(err)
	}
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	aged, err := FromCheckpoint(cp, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range aged.Runners {
		b, err := d.Snapshot()
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		if !bytes.Equal(b, blob) {
			t.Fatalf("device %d does not snapshot to the aged runner it was forked from", i)
		}
	}

	opened, err := sim.OpenCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := FromCheckpoint(opened, spec)
	if err != nil {
		t.Fatal(err)
	}
	reqs := fleetTrace(t, aged, 0.01)
	ares, err := aged.Replay(context.Background(), reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := forked.Replay(context.Background(), reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertFleetIdentical(t, ares, fres, "in-memory vs opened checkpoint")
	if ares.WarmupWrites == 0 {
		t.Error("aged volume reports zero warm-up writes")
	}
}

// TestFromCheckpointAllocatesNForks checks what a volume costs: one fork per
// device and nothing more, each device in the checkpoint's state. A fork is
// the device's whole state, so a volume that built or copied one device more
// would allocate half a fork over the limit.
func TestFromCheckpointAllocatesNForks(t *testing.T) {
	r, err := sim.NewRunner(sim.KindFTL, fleetConf())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Age(sim.DefaultAging()); err != nil {
		t.Fatal(err)
	}
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sim.OpenCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	fork := allocated(func() { _, err = cp.Fork() })
	if err != nil {
		t.Fatal(err)
	}

	const devices = 4
	var v *Volume
	fleet := allocated(func() { v, err = FromCheckpoint(cp, Spec{Devices: devices, Layout: LayoutConcat}) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fork %.0f B, %d-device FromCheckpoint %.0f B", fork, devices, fleet)
	if limit := devices*fork + fork/2; fleet > limit {
		t.Errorf("FromCheckpoint allocated %.0f B, more than %d forks (%.0f B)", fleet, devices, limit)
	}
	for i, d := range v.Runners {
		b, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, blob) {
			t.Errorf("device %d does not snapshot to the blob it was forked from", i)
		}
	}
}

// TestFleetRestoreWarmValidates checks what FromCheckpoint takes from the
// checkpoint and what it refuses. The scheme and configuration are the
// checkpoint's, so a checkpoint of another scheme cannot mismatch the
// volume: it forks a volume of that scheme. What it must refuse is a layout
// the checkpoint's device cannot hold. (A damaged blob never becomes a
// checkpoint: TestTamperSweepNeverYieldsARunner pins sim.OpenCheckpoint's
// refusal.)
func TestFleetRestoreWarmValidates(t *testing.T) {
	cp, err := sim.FreshCheckpoint(sim.KindMRSM, fleetConf())
	if err != nil {
		t.Fatal(err)
	}
	v, err := FromCheckpoint(cp, Spec{Devices: 2, Layout: LayoutRAID0, ChunkSectors: 32})
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != sim.KindMRSM || *v.Conf != fleetConf() || len(v.Runners) != 2 {
		t.Errorf("forked %d %s devices with config %+v, want 2 of the checkpoint's MRSM device", len(v.Runners), v.Kind, *v.Conf)
	}
	conf := fleetConf()
	for _, bad := range []Spec{
		{Devices: 0, Layout: LayoutRAID0},
		{Devices: 3, Layout: LayoutRAID10, ChunkSectors: 32},
		{Devices: 2, Layout: LayoutRAID0, ChunkSectors: conf.LogicalSectors() + 1},
	} {
		if _, err := FromCheckpoint(cp, bad); err == nil {
			t.Errorf("FromCheckpoint accepted spec %+v", bad)
		}
	}
}

// TestFleetClosedLoopGate checks the queue-depth gate actually throttles: on
// a burst trace (every arrival at t=0), qd=1 serialises the requests, so the
// makespan can only grow versus the open-loop flood of the same trace.
func TestFleetClosedLoopGate(t *testing.T) {
	spec := Spec{Devices: 4, Layout: LayoutRAID0, ChunkSectors: 32}
	v := buildVolume(t, sim.KindFTL, spec)
	reqs := fleetTrace(t, v, 0.01)
	for i := range reqs {
		reqs[i].Time = 0
	}
	open, err := buildVolume(t, sim.KindFTL, spec).Replay(context.Background(), reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := buildVolume(t, sim.KindFTL, spec).Replay(context.Background(), reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gated.MeasuredSpanMs < open.MeasuredSpanMs {
		t.Errorf("qd=1 makespan %g ms shorter than open-loop %g ms", gated.MeasuredSpanMs, open.MeasuredSpanMs)
	}
	// Serialising a flood accumulates queue wait into every response time:
	// mean latency can only grow versus issuing everything at t=0.
	if gated.AvgReadLatency() < open.AvgReadLatency() {
		t.Errorf("qd=1 mean read latency %g ms below open-loop flood %g ms — gate not throttling", gated.AvgReadLatency(), open.AvgReadLatency())
	}
}

// TestFleetAuditAfterReplay runs the device invariant auditor over every
// device of a mirrored volume after a replay.
func TestFleetAuditAfterReplay(t *testing.T) {
	v := buildVolume(t, sim.KindAcross, Spec{Devices: 4, Layout: LayoutRAID10, ChunkSectors: 16})
	reqs := fleetTrace(t, v, 0.01)
	if _, err := v.Replay(context.Background(), reqs, 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Audit(); err != nil {
		t.Error(err)
	}
}

// BenchmarkFleetReplay times an open-loop fleet replay — full-length lun1 on
// a RAID-0 volume of 2 or 4 aged Experiment devices with 64 KiB chunks — per
// scheme. Every replay starts from fresh forks of one aged checkpoint, and
// only the replay is timed.
func BenchmarkFleetReplay(b *testing.B) {
	conf := ssdconf.Experiment()
	lun1, err := workload.LunProfile("lun1")
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range sim.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			r, err := sim.NewRunner(kind, conf)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.Age(sim.DefaultAging()); err != nil {
				b.Fatal(err)
			}
			aged, err := r.Checkpoint()
			if err != nil {
				b.Fatal(err)
			}
			for _, devices := range []int{2, 4} {
				spec := Spec{Devices: devices, Layout: LayoutRAID0}
				b.Run("raid0x"+itoa(devices), func(b *testing.B) {
					var reqs []trace.Request
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						v, err := FromCheckpoint(aged, spec)
						if err != nil {
							b.Fatal(err)
						}
						if reqs == nil {
							if reqs, err = workload.Generate(lun1, v.LogicalSectors()); err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
						if _, err := v.Replay(context.Background(), reqs, 0); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
				})
			}
		})
	}
}
