package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
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

func buildVolume(t *testing.T, kind sim.SchemeKind, spec Spec) *Volume {
	t.Helper()
	v, err := New(kind, fleetConf(), spec)
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
		if want.Requests != got.Requests || want.SubRequests != got.SubRequests {
			t.Errorf("%s: requests %d/%d vs %d/%d", label, want.Requests, want.SubRequests, got.Requests, got.SubRequests)
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
// bare sim.Runner would, so the per-request aggregates must match the
// single-device engine's field for field.
func TestFleetConcatSingleDeviceMatchesSim(t *testing.T) {
	conf := fleetConf()
	v := buildVolume(t, sim.KindAcross, Spec{Devices: 1, Layout: LayoutConcat})
	reqs := fleetTrace(t, v, 0.02)

	fres, err := v.Replay(context.Background(), reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(sim.KindAcross, conf)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := r.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}

	if fres.Requests != sres.Requests || fres.ReadCount != sres.ReadCount || fres.WriteCount != sres.WriteCount {
		t.Errorf("request counts diverged: fleet %d/%d/%d vs sim %d/%d/%d",
			fres.Requests, fres.ReadCount, fres.WriteCount, sres.Requests, sres.ReadCount, sres.WriteCount)
	}
	if fres.SubRequests != fres.Requests {
		t.Errorf("1-device concat fanned out: %d sub-requests for %d requests", fres.SubRequests, fres.Requests)
	}
	if fres.ReadLatencySum != sres.ReadLatencySum || fres.WriteLatencySum != sres.WriteLatencySum {
		t.Errorf("latency sums diverged: fleet (%g,%g) vs sim (%g,%g)",
			fres.ReadLatencySum, fres.WriteLatencySum, sres.ReadLatencySum, sres.WriteLatencySum)
	}
	if fres.Counters() != sres.Counters {
		t.Errorf("counters diverged: fleet %+v vs sim %+v", fres.Counters(), sres.Counters)
	}
	if fres.MeasuredSpanMs != sres.MeasuredSpanMs || fres.TraceSpanMs != sres.TraceSpanMs {
		t.Errorf("spans diverged: fleet (%g,%g) vs sim (%g,%g)",
			fres.TraceSpanMs, fres.MeasuredSpanMs, sres.TraceSpanMs, sres.MeasuredSpanMs)
	}
	for op := 0; op < 2; op++ {
		for class := 0; class < 3; class++ {
			fb := fres.ByBucket[op][class]
			key := sim.BucketKey{Op: trace.Op(op), Class: trace.Class(class)}
			sb := sres.ByBucket[key]
			if sb == nil {
				if fb != (sim.OpClassMetrics{}) {
					t.Errorf("bucket %v: fleet %+v vs missing sim bucket", key, fb)
				}
				continue
			}
			if fb != *sb {
				t.Errorf("bucket %v: fleet %+v vs sim %+v", key, fb, *sb)
			}
		}
	}
}

// TestFleetAgeForksIdenticalDevices checks the fork-from-checkpoint warm-up:
// after Age, every device must serialise to the same snapshot as device 0,
// and a volume built with FromSnapshot from the warm blob must replay
// byte-identically to the aged volume.
func TestFleetAgeForksIdenticalDevices(t *testing.T) {
	spec := Spec{Devices: 2, Layout: LayoutRAID0, ChunkSectors: 32}
	aging := sim.DefaultAging()
	aging.ValidFrac = 0.2
	aging.UsedFrac = 0.5

	aged := buildVolume(t, sim.KindFTL, spec)
	if err := aged.Age(context.Background(), aging); err != nil {
		t.Fatal(err)
	}
	blob, err := aged.WarmSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range aged.Runners {
		b, err := r.Snapshot()
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		if !bytes.Equal(b, blob) {
			t.Fatalf("device %d snapshot differs from device 0 after Age", i)
		}
	}

	forked, err := FromSnapshot(blob, spec)
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
	assertFleetIdentical(t, ares, fres, "aged vs FromSnapshot")
	if ares.WarmupWrites == 0 {
		t.Error("aged volume reports zero warm-up writes")
	}
}

// TestFromSnapshotOpensOnce checks what a fleet built from one blob costs:
// one verified open plus a fork per further device, not an open per device.
// An open allocates what two forks do (the decoded template and its trial
// fork) plus the inflated body, the inflater and the audit, so the bytes
// allocated tell the two apart.
func TestFromSnapshotOpensOnce(t *testing.T) {
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
	allocated := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	var cp *sim.Checkpoint
	open := allocated(func() {
		if cp, err = sim.OpenCheckpoint(blob); err == nil {
			_, err = cp.Fork() // device 0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	fork := allocated(func() { _, err = cp.Fork() })
	if err != nil {
		t.Fatal(err)
	}

	const devices = 4
	var v *Volume
	fleet := allocated(func() { v, err = FromSnapshot(blob, Spec{Devices: devices, Layout: LayoutConcat}) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("open+fork %.0f B, fork %.0f B, %d-device FromSnapshot %.0f B", open, fork, devices, fleet)
	if limit := open + (devices-1)*fork + (open-fork)/2; fleet > limit {
		t.Errorf("FromSnapshot allocated %.0f B, more than one open and %d forks (%.0f B): it opens per device", fleet, devices-1, limit)
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

// TestFleetRestoreWarmValidates checks the one warm restore a fleet has,
// FromSnapshot. The scheme and configuration come from the blob, so a
// checkpoint of another scheme cannot mismatch the volume: it restores as a
// volume of that scheme. What the restore must refuse is a damaged blob and
// a layout the checkpoint's device cannot hold.
func TestFleetRestoreWarmValidates(t *testing.T) {
	other, err := sim.NewRunner(sim.KindMRSM, fleetConf())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := other.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Devices: 2, Layout: LayoutRAID0, ChunkSectors: 32}
	v, err := FromSnapshot(blob, spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != sim.KindMRSM || *v.Conf != fleetConf() {
		t.Errorf("restored a %s volume with config %+v, want the blob's MRSM device", v.Kind, *v.Conf)
	}

	damaged := bytes.Clone(blob)
	damaged[len(damaged)/2] ^= 0xff
	for name, b := range map[string][]byte{"flipped byte": damaged, "truncated": blob[:len(blob)/2]} {
		if _, err := FromSnapshot(b, spec); err == nil {
			t.Errorf("FromSnapshot accepted a %s blob", name)
		}
	}
	conf := fleetConf()
	for _, bad := range []Spec{
		{Devices: 3, Layout: LayoutRAID10, ChunkSectors: 32},
		{Devices: 2, Layout: LayoutRAID0, ChunkSectors: conf.LogicalSectors() + 1},
	} {
		if _, err := FromSnapshot(blob, bad); err == nil {
			t.Errorf("FromSnapshot accepted spec %+v", bad)
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
