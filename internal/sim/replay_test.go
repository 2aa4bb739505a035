package sim

import (
	"testing"

	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

func TestAgeWithTraceWarmsDevice(t *testing.T) {
	c := smallConf()
	r, err := NewRunner(KindAcross, c)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.LunProfiles()[5].Scale(0.01)
	aging, err := workload.Generate(p, c.LogicalSectors())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AgeWithTrace(aging); err != nil {
		t.Fatal(err)
	}
	used, valid := r.AgedState()
	if used <= 0 || valid <= 0 {
		t.Fatalf("trace aging left device fresh: used=%.3f valid=%.3f", used, valid)
	}
	if r.warmupWrites == 0 {
		t.Fatal("no warm-up writes counted")
	}
	// Trace aging marks the device warmed: Age must now refuse.
	if err := r.Age(DefaultAging()); err == nil {
		t.Fatal("Age accepted after AgeWithTrace")
	}
	// Replay still works and resets measurement.
	res, err := r.Replay(smallTrace(t, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.FlashWrites() == 0 {
		t.Fatal("replay after trace aging produced nothing")
	}
}

func TestAgeWithTraceRejectsBadRequests(t *testing.T) {
	r, err := NewRunner(KindFTL, smallConf())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AgeWithTrace([]trace.Request{{Op: trace.OpWrite, Offset: -1, Count: 4}}); err == nil {
		t.Fatal("bad aging request accepted")
	}
}

func TestReplayQDBoundsOutstanding(t *testing.T) {
	// A burst of simultaneous writes: open-loop issues all at t=0 and lets
	// the chips queue; QD=1 serialises them end to end, so the last
	// request's completion must be strictly later than open-loop's average
	// but the device work identical.
	c := smallConf()
	burst := make([]trace.Request, 32)
	for i := range burst {
		burst[i] = trace.Request{Op: trace.OpWrite, Offset: int64(i) * 16, Count: 16}
	}
	open, err := NewRunner(KindFTL, c)
	if err != nil {
		t.Fatal(err)
	}
	openRes, err := open.Replay(burst)
	if err != nil {
		t.Fatal(err)
	}
	qd1, err := NewRunner(KindFTL, c)
	if err != nil {
		t.Fatal(err)
	}
	qd1Res, err := qd1.ReplayQD(burst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qd1Res.Counters.FlashWrites() != openRes.Counters.FlashWrites() {
		t.Fatalf("QD changed device work: %d vs %d",
			qd1Res.Counters.FlashWrites(), openRes.Counters.FlashWrites())
	}
	// With QD=1 on an idle device, each write takes ~ProgramTime, strictly
	// serialised: total span ~32 * 2ms. Open-loop spreads across 4 chips:
	// ~16ms. QD=1 response times accumulate the host-queueing delay.
	if qd1Res.WriteLat.Max() <= openRes.WriteLat.Max() {
		t.Fatalf("QD=1 max latency %v <= open-loop %v (serialisation lost)",
			qd1Res.WriteLat.Max(), openRes.WriteLat.Max())
	}
	wantMin := 32 * c.ProgramTime * 0.9
	if qd1Res.WriteLat.Max() < wantMin {
		t.Fatalf("QD=1 last completion %v, want >= %v", qd1Res.WriteLat.Max(), wantMin)
	}
}

func TestReplayQDLargeEqualsOpenLoop(t *testing.T) {
	c := smallConf()
	reqs := smallTrace(t, 0.003)
	a, err := NewRunner(KindAcross, c)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(KindAcross, c)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.ReplayQD(reqs, 1<<20) // effectively unbounded
	if err != nil {
		t.Fatal(err)
	}
	if ra.TotalIOTime() != rb.TotalIOTime() {
		t.Fatalf("huge QD differs from open loop: %v vs %v", ra.TotalIOTime(), rb.TotalIOTime())
	}
	if ra.Counters != rb.Counters {
		t.Fatal("counters differ between open loop and huge QD")
	}
}

// BenchmarkReplay is the benchmark ledger's gc-churn cell at Go level: the
// full lun1 profile turned into churn (95 % writes over 90 % of the logical
// space), closed loop at queue depth 8, on the 8 GiB Scaled16 device, one
// sub-benchmark per scheme. Each iteration forks the scheme's aged checkpoint
// outside the timer, so req/s prices the replay alone. DESIGN §7 quotes it
// and CI runs it once.
func BenchmarkReplay(b *testing.B) {
	conf := ssdconf.Scaled(16)
	p, err := workload.LunProfile("lun1")
	if err != nil {
		b.Fatal(err)
	}
	p.Name, p.WriteRatio, p.FootprintFrac = "churn", 0.95, 0.9
	reqs, err := workload.Generate(p, conf.LogicalSectors())
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range schemes {
		var cp *Checkpoint // aged on the sub-benchmark's first call only
		b.Run(string(e.kind), func(b *testing.B) {
			if cp == nil {
				r, err := NewRunner(e.kind, conf)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.Age(DefaultAging()); err != nil {
					b.Fatal(err)
				}
				if cp, err = r.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r, err := cp.Fork()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := r.ReplayQD(reqs, 8); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(reqs))/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkAge prices the warm-up every aged cell starts from: DefaultAging
// on gc-churn's 8 GiB Scaled16 device, one sub-benchmark per scheme. Each
// iteration builds a fresh runner outside the timer and ages it, so writes/s
// counts the fill and overwrite phases' page writes alone. DESIGN §7 quotes
// it and CI runs it once.
func BenchmarkAge(b *testing.B) {
	conf := ssdconf.Scaled(16)
	for _, e := range schemes {
		b.Run(string(e.kind), func(b *testing.B) {
			var writes int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r, err := NewRunner(e.kind, conf)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := r.Age(DefaultAging()); err != nil {
					b.Fatal(err)
				}
				writes += r.WarmupWrites()
			}
			b.ReportMetric(float64(writes)/b.Elapsed().Seconds(), "writes/s")
		})
	}
}
