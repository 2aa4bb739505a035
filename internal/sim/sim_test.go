package sim

import (
	"testing"

	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// smallConf is big enough for meaningful aging/GC, small enough for fast
// tests: Table 1 scaled way down.
func smallConf() ssdconf.Config {
	c := ssdconf.Table1()
	c.Channels = 4
	c.ChipsPerChan = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 1
	c.BlocksPerPlane = 64
	c.PagesPerBlock = 32
	return c
}

func smallTrace(t *testing.T, scale float64) []trace.Request {
	t.Helper()
	c := smallConf()
	p := workload.LunProfiles()[0].Scale(scale)
	reqs, err := workload.Generate(p, c.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestNewRunnerValidates(t *testing.T) {
	bad := smallConf()
	bad.Channels = 0
	if _, err := NewRunner(KindFTL, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewRunner(SchemeKind("bogus"), smallConf()); err == nil {
		t.Fatal("bogus scheme kind accepted")
	}
}

func TestKindsOrderAndFactory(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 3 || kinds[0] != KindFTL || kinds[1] != KindMRSM || kinds[2] != KindAcross {
		t.Fatalf("Kinds = %v", kinds)
	}
	for _, k := range kinds {
		c := smallConf()
		s, err := NewScheme(k, &c)
		if err != nil {
			t.Fatalf("NewScheme(%s): %v", k, err)
		}
		if s.Name() != string(k) {
			t.Errorf("scheme name %q != kind %q", s.Name(), k)
		}
	}
}

func TestAgingReachesPaperState(t *testing.T) {
	for _, kind := range Kinds() {
		r, err := NewRunner(kind, smallConf())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Age(DefaultAging()); err != nil {
			t.Fatalf("%s: Age: %v", kind, err)
		}
		used, valid := r.AgedState()
		if used < 0.80 {
			t.Errorf("%s: used fraction %.3f, want >= 0.80 (target 0.90)", kind, used)
		}
		if valid < 0.30 || valid > 0.50 {
			t.Errorf("%s: valid fraction %.3f, want ~0.398", kind, valid)
		}
		if r.warmupWrites == 0 {
			t.Errorf("%s: no warm-up writes recorded", kind)
		}
		// Aging twice is a usage error.
		if err := r.Age(DefaultAging()); err == nil {
			t.Errorf("%s: double Age accepted", kind)
		}
	}
}

func TestAgeRejectsImplausibleParameters(t *testing.T) {
	r, err := NewRunner(KindFTL, smallConf())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Aging{
		{ValidFrac: 0, UsedFrac: 0.9},
		{ValidFrac: 0.5, UsedFrac: 0.4},
		{ValidFrac: 0.4, UsedFrac: 1.0},
	} {
		if err := r.Age(a); err == nil {
			t.Errorf("implausible aging %+v accepted", a)
		}
	}
}

func TestReplayCollectsCoherentMetrics(t *testing.T) {
	reqs := smallTrace(t, 0.01) // ~7.5k requests
	for _, kind := range Kinds() {
		res, err := Run(kind, smallConf(), reqs, true)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Requests != int64(len(reqs)) {
			t.Errorf("%s: Requests = %d, want %d", kind, res.Requests, len(reqs))
		}
		if res.ReadCount+res.WriteCount != res.Requests {
			t.Errorf("%s: read+write != total", kind)
		}
		if res.WriteLatencySum <= 0 || res.ReadLatencySum <= 0 {
			t.Errorf("%s: non-positive latency sums %+v", kind, res)
		}
		if res.AvgWriteLatency() <= res.AvgReadLatency() {
			t.Errorf("%s: write latency %.3f <= read latency %.3f (program is 26x read time)",
				kind, res.AvgWriteLatency(), res.AvgReadLatency())
		}
		if res.Counters.FlashWrites() == 0 || res.Counters.Erases == 0 {
			t.Errorf("%s: no flash writes or erases on an aged device: %+v", kind, res.Counters)
		}
		if res.TableBytes == 0 {
			t.Errorf("%s: TableBytes = 0", kind)
		}
		// Bucket totals reconcile with direction totals.
		var bucketReqs int64
		var bucketLat float64
		for _, byClass := range res.ByBucket {
			for _, m := range byClass {
				bucketReqs += m.Requests
				bucketLat += m.LatencySum
			}
		}
		if bucketReqs != res.Requests {
			t.Errorf("%s: bucket requests %d != %d", kind, bucketReqs, res.Requests)
		}
		if d := bucketLat - res.TotalIOTime(); d > 1e-6 || d < -1e-6 {
			t.Errorf("%s: bucket latency %.6f != total %.6f", kind, bucketLat, res.TotalIOTime())
		}
	}
}

// TestHeadlineComparative encodes the paper's headline directional results
// on a common trace: Across-FTL must beat the baseline on data writes and
// erases, and the baseline must beat MRSM on erases (Fig 10, 11).
func TestHeadlineComparative(t *testing.T) {
	reqs := smallTrace(t, 0.02)
	results := map[SchemeKind]*Result{}
	for _, kind := range Kinds() {
		res, err := Run(kind, smallConf(), reqs, true)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		results[kind] = res
	}
	ftlRes, acrossRes, mrsmRes := results[KindFTL], results[KindAcross], results[KindMRSM]

	if acrossRes.Counters.FlashWrites() >= ftlRes.Counters.FlashWrites() {
		t.Errorf("Across-FTL flash writes %d >= FTL %d; paper says -15.9%%",
			acrossRes.Counters.FlashWrites(), ftlRes.Counters.FlashWrites())
	}
	if acrossRes.Counters.Erases >= ftlRes.Counters.Erases {
		t.Errorf("Across-FTL erases %d >= FTL %d; paper says -13.3%%",
			acrossRes.Counters.Erases, ftlRes.Counters.Erases)
	}
	if mrsmRes.Counters.Erases <= acrossRes.Counters.Erases {
		t.Errorf("MRSM erases %d <= Across-FTL %d; paper says MRSM is worst",
			mrsmRes.Counters.Erases, acrossRes.Counters.Erases)
	}
	if acrossRes.AvgWriteLatency() >= ftlRes.AvgWriteLatency() {
		t.Errorf("Across-FTL write latency %.3f >= FTL %.3f; paper says -8.9%%",
			acrossRes.AvgWriteLatency(), ftlRes.AvgWriteLatency())
	}
	// Map traffic ordering (Fig 10): baseline none, Across little, MRSM lots.
	if ftlRes.Counters.MapWrites != 0 {
		t.Errorf("baseline FTL has map writes: %d", ftlRes.Counters.MapWrites)
	}
	if mrsmRes.Counters.MapWrites <= acrossRes.Counters.MapWrites {
		t.Errorf("MRSM map writes %d <= Across-FTL %d", mrsmRes.Counters.MapWrites, acrossRes.Counters.MapWrites)
	}
	// DRAM accesses (Fig 12b): MRSM far above the others.
	if mrsmRes.Counters.DRAMAccesses <= 2*ftlRes.Counters.DRAMAccesses {
		t.Errorf("MRSM DRAM accesses %d not >> FTL %d", mrsmRes.Counters.DRAMAccesses, ftlRes.Counters.DRAMAccesses)
	}
	// Table sizes (Fig 12a): FTL < Across < MRSM.
	if !(ftlRes.TableBytes < acrossRes.TableBytes && acrossRes.TableBytes < mrsmRes.TableBytes) {
		t.Errorf("table sizes not ordered: FTL=%d Across=%d MRSM=%d",
			ftlRes.TableBytes, acrossRes.TableBytes, mrsmRes.TableBytes)
	}
	// Across-FTL census populated.
	if acrossRes.Across == nil || acrossRes.Across.AreasTouched() == 0 {
		t.Error("Across-FTL census empty")
	}
}

// TestFig4PenaltyOnBaseline: across-page requests must show higher
// per-sector latency and flush counts than normal requests under the
// conventional FTL — the paper's motivating measurement.
func TestFig4PenaltyOnBaseline(t *testing.T) {
	reqs := smallTrace(t, 0.02)
	res, err := Run(KindFTL, smallConf(), reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	aw, nw := res.AcrossBucket(trace.OpWrite), res.MergedNormal(trace.OpWrite)
	if aw.Requests == 0 || nw.Requests == 0 {
		t.Fatal("missing across or normal write buckets")
	}
	if aw.FlushesPerSector() <= nw.FlushesPerSector() {
		t.Errorf("across flushes/sector %.4f <= normal %.4f (paper: 2.69x)",
			aw.FlushesPerSector(), nw.FlushesPerSector())
	}
	if aw.LatencyPerSector() <= nw.LatencyPerSector() {
		t.Errorf("across write latency/sector %.4f <= normal %.4f (paper: 1.49x)",
			aw.LatencyPerSector(), nw.LatencyPerSector())
	}
	ar, nr := res.AcrossBucket(trace.OpRead), res.MergedNormal(trace.OpRead)
	if ar.LatencyPerSector() <= nr.LatencyPerSector() {
		t.Errorf("across read latency/sector %.4f <= normal %.4f (paper: 1.61x)",
			ar.LatencyPerSector(), nr.LatencyPerSector())
	}
}

func TestReplayWithoutAgingWorks(t *testing.T) {
	reqs := smallTrace(t, 0.005)
	res, err := Run(KindAcross, smallConf(), reqs, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmupWrites != 0 {
		t.Errorf("WarmupWrites = %d without aging", res.WarmupWrites)
	}
}

func TestReplayRejectsBrokenRequests(t *testing.T) {
	r, err := NewRunner(KindFTL, smallConf())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay([]trace.Request{{Op: trace.OpWrite, Offset: -4, Count: 8}}); err == nil {
		t.Fatal("broken request accepted")
	}
}

func TestOpClassMetricsZeroSafety(t *testing.T) {
	var m OpClassMetrics
	if m.LatencyPerSector() != 0 || m.FlushesPerSector() != 0 || m.AvgLatency() != 0 {
		t.Fatal("zero metrics should divide to zero")
	}
	var res Result
	if res.AvgReadLatency() != 0 || res.AvgWriteLatency() != 0 {
		t.Fatal("zero result should divide to zero")
	}
}
