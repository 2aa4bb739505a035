package sim

import (
	"testing"

	"across/internal/trace"
)

func TestResultCarriesLatencyDistributions(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	res, err := Run(KindAcross, smallConf(), reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteLat.Count() != res.WriteCount {
		t.Fatalf("write histogram count %d != %d", res.WriteLat.Count(), res.WriteCount)
	}
	if res.ReadLat.Count() != res.ReadCount {
		t.Fatalf("read histogram count %d != %d", res.ReadLat.Count(), res.ReadCount)
	}
	// Histogram mean must agree with the exact sums.
	if d := res.WriteLat.Mean() - res.AvgWriteLatency(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("write mean mismatch: %v vs %v", res.WriteLat.Mean(), res.AvgWriteLatency())
	}
	// Tails are ordered and bounded by the max.
	if !(res.WriteLat.P50() <= res.WriteLat.P99() && res.WriteLat.P99() <= res.WriteLat.Max()) {
		t.Fatalf("write tail ordering broken: p50=%v p99=%v max=%v",
			res.WriteLat.P50(), res.WriteLat.P99(), res.WriteLat.Max())
	}
	// GC bursts make the write tail heavier than the median.
	if res.WriteLat.P99() <= res.WriteLat.P50() {
		t.Fatal("no write tail at all on an aged device")
	}
}

func TestResultCarriesWearSummary(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	res, err := Run(KindFTL, smallConf(), reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Wear
	if w.Mean <= 0 || w.Max <= 0 {
		t.Fatalf("aged+replayed device shows no wear: %+v", w)
	}
	if w.Min > w.Max || float64(w.Min) > w.Mean || w.Mean > float64(w.Max) {
		t.Fatalf("wear ordering broken: %+v", w)
	}
	if w.StdDev < 0 {
		t.Fatalf("negative wear stddev: %+v", w)
	}
}

func TestMergedNormalCombinesBuckets(t *testing.T) {
	res := &Result{}
	res.Bucket(trace.OpWrite, trace.ClassAligned).Requests = 3
	res.Bucket(trace.OpWrite, trace.ClassAligned).Sectors = 30
	res.Bucket(trace.OpWrite, trace.ClassUnaligned).Requests = 2
	res.Bucket(trace.OpWrite, trace.ClassUnaligned).Sectors = 10
	res.Bucket(trace.OpWrite, trace.ClassAcross).Requests = 9 // excluded
	m := res.MergedNormal(trace.OpWrite)
	if m.Requests != 5 || m.Sectors != 40 {
		t.Fatalf("MergedNormal = %+v", m)
	}
	a := res.AcrossBucket(trace.OpWrite)
	if a.Requests != 9 {
		t.Fatalf("AcrossBucket = %+v", a)
	}
	if res.AcrossBucket(trace.OpRead).Requests != 0 {
		t.Fatal("missing bucket should be zero value")
	}
}
