package across

// One benchmark per table and figure of the paper, plus ablation benches
// for the design choices DESIGN.md calls out. Each benchmark regenerates
// its artifact end to end (trace synthesis, device aging, replay, report)
// on a small shape-preserving geometry, and reports the headline ratio of
// that artifact as a custom metric so `go test -bench . -benchmem` doubles
// as a regression harness for the reproduction itself.
//
// For paper-scale numbers use `go run ./cmd/experiments` (optionally -full).

import (
	"io"
	"testing"

	"across/internal/acrossftl"
	"across/internal/experiments"
	"across/internal/ftl"
	"across/internal/hostcache"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// benchSSD is the benchmark device: Table 1 timing and page geometry on a
// small array (4 chips, 256 MiB) so every bench iteration is sub-second.
func benchSSD() ssdconf.Config {
	c := ssdconf.Table1()
	c.Channels = 4
	c.ChipsPerChan = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 1
	c.BlocksPerPlane = 128
	c.PagesPerBlock = 32
	return c
}

func benchExpConfig() experiments.Config {
	return experiments.Config{
		SSD:            benchSSD(),
		Scale:          0.004, // ~2.5-3.5k requests per lun
		Age:            true,
		CollectionSize: 12,
	}
}

// benchArtifact runs one experiment end to end per iteration.
func benchArtifact(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s, err := experiments.NewSession(benchExpConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.RunOne(id, s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Config regenerates Table 1 (configuration check).
func BenchmarkTable1Config(b *testing.B) { benchArtifact(b, "table1") }

// BenchmarkTable2TraceSpecs regenerates Table 2 (trace synthesis + stats).
func BenchmarkTable2TraceSpecs(b *testing.B) { benchArtifact(b, "table2") }

// BenchmarkFig2AcrossRatioCollection regenerates Fig 2 (collection sweep).
func BenchmarkFig2AcrossRatioCollection(b *testing.B) { benchArtifact(b, "fig2") }

// BenchmarkFig4AcrossPenalty regenerates Fig 4 (baseline across-page cost).
func BenchmarkFig4AcrossPenalty(b *testing.B) { benchArtifact(b, "fig4") }

// BenchmarkFig8AcrossStats regenerates Fig 8 (across-page census).
func BenchmarkFig8AcrossStats(b *testing.B) { benchArtifact(b, "fig8") }

// BenchmarkFig9ResponseTime regenerates Fig 9 (three-scheme latencies).
func BenchmarkFig9ResponseTime(b *testing.B) { benchArtifact(b, "fig9") }

// BenchmarkFig10FlashOps regenerates Fig 10 (flash op counts, Map/Data).
func BenchmarkFig10FlashOps(b *testing.B) { benchArtifact(b, "fig10") }

// BenchmarkFig11EraseCount regenerates Fig 11 (endurance).
func BenchmarkFig11EraseCount(b *testing.B) { benchArtifact(b, "fig11") }

// BenchmarkFig12Overhead regenerates Fig 12 (space/DRAM overheads).
func BenchmarkFig12Overhead(b *testing.B) { benchArtifact(b, "fig12") }

// BenchmarkFig13PageSizeRatio regenerates Fig 13 (across ratio vs page size).
func BenchmarkFig13PageSizeRatio(b *testing.B) { benchArtifact(b, "fig13") }

// BenchmarkFig14PageSizeSweep regenerates Fig 14 (3 schemes x 3 page sizes).
func BenchmarkFig14PageSizeSweep(b *testing.B) { benchArtifact(b, "fig14") }

// benchTrace synthesises the shared ablation workload once.
func benchTrace(b *testing.B, conf ssdconf.Config) []trace.Request {
	b.Helper()
	p, err := workload.LunProfile("lun1")
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.Generate(p.Scale(0.004), conf.LogicalSectors())
	if err != nil {
		b.Fatal(err)
	}
	return reqs
}

// replayScheme ages and replays one pre-built scheme.
func replayScheme(b *testing.B, conf ssdconf.Config, s ftl.Scheme, kind sim.SchemeKind, reqs []trace.Request) *sim.Result {
	b.Helper()
	r := &sim.Runner{Conf: &conf, Kind: kind, Scheme: s}
	if err := r.Age(sim.DefaultAging()); err != nil {
		b.Fatal(err)
	}
	res, err := r.Replay(reqs)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationAMerge compares full Across-FTL against a variant with
// AMerge disabled (every conflicting update rolls the area back), isolating
// how much the merge policy contributes to the flash-write savings.
func BenchmarkAblationAMerge(b *testing.B) {
	conf := benchSSD()
	reqs := benchTrace(b, conf)
	for _, variant := range []struct {
		name string
		opts acrossftl.Options
	}{
		{"merge-enabled", acrossftl.Options{}},
		{"rollback-only", acrossftl.Options{DisableAMerge: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var writes, erases int64
			for i := 0; i < b.N; i++ {
				s, err := acrossftl.NewWithOptions(&conf, variant.opts)
				if err != nil {
					b.Fatal(err)
				}
				res := replayScheme(b, conf, s, sim.KindAcross, reqs)
				writes = res.Counters.FlashWrites()
				erases = res.Counters.Erases
			}
			b.ReportMetric(float64(writes), "flashwrites")
			b.ReportMetric(float64(erases), "erases")
		})
	}
}

// BenchmarkAblationAMTCache sweeps the DRAM-resident AMT translation-page
// budget: too small and across-area lookups start spilling to flash.
func BenchmarkAblationAMTCache(b *testing.B) {
	conf := benchSSD()
	reqs := benchTrace(b, conf)
	for _, pages := range []int{2, 8, 64} {
		b.Run("pages-"+itoa(pages), func(b *testing.B) {
			var mapOps int64
			for i := 0; i < b.N; i++ {
				s, err := acrossftl.NewWithOptions(&conf, acrossftl.Options{AMTCachePages: pages})
				if err != nil {
					b.Fatal(err)
				}
				res := replayScheme(b, conf, s, sim.KindAcross, reqs)
				mapOps = res.Counters.MapReads + res.Counters.MapWrites
			}
			b.ReportMetric(float64(mapOps), "mapops")
		})
	}
}

// BenchmarkAblationGCVictim compares the greedy victim selection (the
// paper's SSDsim default) against FIFO on the baseline FTL.
func BenchmarkAblationGCVictim(b *testing.B) {
	conf := benchSSD()
	reqs := benchTrace(b, conf)
	for _, variant := range []struct {
		name   string
		policy ftl.VictimPolicy
	}{
		{"greedy", ftl.VictimGreedy},
		{"fifo", ftl.VictimFIFO},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var erases, gcWrites int64
			for i := 0; i < b.N; i++ {
				s, err := ftl.NewBaseline(&conf)
				if err != nil {
					b.Fatal(err)
				}
				s.Al.SetVictimPolicy(variant.policy)
				res := replayScheme(b, conf, s, sim.KindFTL, reqs)
				erases = res.Counters.Erases
				gcWrites = res.Counters.GCWrites
			}
			b.ReportMetric(float64(erases), "erases")
			b.ReportMetric(float64(gcWrites), "gcwrites")
		})
	}
}

// BenchmarkAblationPartialGC compares unbounded collection bursts against
// partial GC (at most 2 victims per invocation) on the baseline FTL. The
// interesting output is the write-latency tail: partial GC trades a few
// extra invocations for far shorter stalls.
func BenchmarkAblationPartialGC(b *testing.B) {
	conf := benchSSD()
	reqs := benchTrace(b, conf)
	for _, variant := range []struct {
		name       string
		maxVictims int
	}{
		{"burst", 0},
		{"partial-2", 2},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var p99, erases float64
			for i := 0; i < b.N; i++ {
				s, err := ftl.NewBaseline(&conf)
				if err != nil {
					b.Fatal(err)
				}
				s.Al.SetMaxVictimsPerGC(variant.maxVictims)
				res := replayScheme(b, conf, s, sim.KindFTL, reqs)
				p99 = res.WriteLat.P99()
				erases = float64(res.Counters.Erases)
			}
			b.ReportMetric(p99, "p99ms")
			b.ReportMetric(erases, "erases")
		})
	}
}

// BenchmarkAblationHostCache shows what a DRAM data buffer (the Table 1
// cache row) can and cannot do: flash reads shrink with cache size while
// flash writes — and therefore the paper's endurance results — stay put.
func BenchmarkAblationHostCache(b *testing.B) {
	conf := benchSSD()
	reqs := benchTrace(b, conf)
	for _, pages := range []int{0, 512, 4096} {
		b.Run("pages-"+itoa(pages), func(b *testing.B) {
			var flashReads, flashWrites int64
			for i := 0; i < b.N; i++ {
				inner, err := ftl.NewBaseline(&conf)
				if err != nil {
					b.Fatal(err)
				}
				var scheme ftl.Scheme = inner
				if pages > 0 {
					scheme = hostcache.Wrap(inner, pages)
				}
				res := replayScheme(b, conf, scheme, sim.KindFTL, reqs)
				flashReads = res.Counters.DataReads
				flashWrites = res.Counters.DataWrites
			}
			b.ReportMetric(float64(flashReads), "flashreads")
			b.ReportMetric(float64(flashWrites), "flashwrites")
		})
	}
}

// BenchmarkAblationWearLeveling measures the endurance-uniformity gain (and
// allocation-scan cost) of picking least-worn free blocks.
func BenchmarkAblationWearLeveling(b *testing.B) {
	conf := benchSSD()
	reqs := benchTrace(b, conf)
	for _, variant := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var spread, sd float64
			for i := 0; i < b.N; i++ {
				s, err := ftl.NewBaseline(&conf)
				if err != nil {
					b.Fatal(err)
				}
				s.Al.SetWearLeveling(variant.on)
				res := replayScheme(b, conf, s, sim.KindFTL, reqs)
				spread = float64(res.Wear.Max - res.Wear.Min)
				sd = res.Wear.StdDev
			}
			b.ReportMetric(spread, "wearspread")
			b.ReportMetric(sd, "wearsd")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
