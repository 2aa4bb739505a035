// Command acrosssim replays a block trace against one FTL scheme and prints
// the measured metrics.
//
// The trace comes either from a SYSTOR '17-format CSV file (-trace) or from
// a built-in Table 2 workload profile (-profile lun1..lun6). Example:
//
//	acrosssim -profile lun1 -scheme Across-FTL -scale 0.05
//	acrosssim -trace mytrace.csv -scheme FTL -page 4096
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"across"
	"across/internal/fleet"
	"across/internal/report"
	"across/internal/sim"
	"across/internal/snapshot"
)

var (
	schemeName = flag.String("scheme", string(across.AcrossFTL), sim.KindList(" | "))
	traceFile  = flag.String("trace", "", "SYSTOR-format CSV trace file")
	profile    = flag.String("profile", "", "built-in workload profile (lun1..lun6)")
	scale      = flag.Float64("scale", 0.05, "fraction of the generated request count (with -profile or a builtin -scenario; -scenario trace replays the full trace unless -scale is given explicitly)")
	pageBytes  = flag.Int("page", 8192, "flash page size in bytes (4096, 8192, 16384)")
	full       = flag.Bool("full", false, "full 128 GiB Table 1 geometry")
	noAge      = flag.Bool("no-age", false, "skip device aging")
	qd         = flag.Int("qd", 0, "bound outstanding requests (0 = open loop)")
	cachePages = flag.Int("cachepages", 0, "host DRAM data cache in pages (0 = none)")

	scenarioName = flag.String("scenario", "", "scenario workload: builtin name (stationary | burst | daynight | mixed) or \"trace\" to wrap -trace as a cohort")
	scenarioIn   = flag.String("scenario-in", "", "replay a stored trace-v2 scenario stream instead of generating one")
	scenarioOut  = flag.String("scenario-out", "", "write the generated scenario stream as a trace-v2 container to FILE")

	fleetN  = flag.Int("fleet", 0, "compose N devices into one logical volume (0 = single device)")
	layout  = flag.String("layout", "raid0", "fleet layout: concat | raid0 | raid10 (with -fleet)")
	chunkKB = flag.Int("chunk-kb", fleet.DefaultChunkKB, "fleet stripe chunk in KB (with -fleet; ignored by concat)")

	snapOut = flag.String("snapshot-out", "", "write a warm-state snapshot of the (aged) device to FILE before replaying")
	snapIn  = flag.String("snapshot-in", "", "restore the device from a warm-state snapshot instead of building and aging one (-scheme/-page/-full/-no-age/-cachepages come from the snapshot and are ignored)")

	checkFlag  = flag.Bool("check", false, "verify the replay: shadow model on every request, device audit at end of run")
	auditEvery = flag.Int64("audit-every", 0, "with -check: also run the device-wide audit every N requests (implies -check)")

	traceOut   = flag.String("trace-out", "", "write an execution trace (.jsonl = event lines; anything else = Chrome trace_event JSON for Perfetto)")
	metricsOut = flag.String("metrics-out", "", "write sampled time-series metrics as JSONL")
	metricsInt = flag.Float64("metrics-interval-ms", 50, "sampling interval in simulated ms (with -metrics-out or -timeline)")
	timeline   = flag.String("timeline", "", "print sampled timeline tables after the run (text | markdown | csv)")
)

func main() {
	flag.Parse()
	scheme, err := sim.ParseKind(*schemeName)
	if err != nil {
		fatal(err)
	}

	cfg := across.ExperimentConfig()
	if *full {
		cfg = across.Table1Config()
	}
	cfg = cfg.WithPageBytes(*pageBytes)

	if *fleetN > 0 {
		runFleet(scheme, cfg)
		return
	}

	// A snapshot fixes the device: scheme kind, geometry and host cache all
	// come from the blob, so restore before trace generation and let the
	// embedded config drive workload sizing.
	var r *across.Runner
	if *snapIn != "" {
		blob, rerr := os.ReadFile(*snapIn)
		if rerr != nil {
			fatal(rerr)
		}
		r, err = across.RestoreRunner(blob)
		if err != nil {
			fatal(snapshotErr(*snapIn, err))
		}
		cfg = *r.Conf
	}

	reqs := loadRequests(cfg.LogicalSectors())
	st := across.TraceStats(reqs, *pageBytes)
	fmt.Printf("device : %s\n", cfg.String())
	fmt.Printf("trace  : %d requests, write ratio %.1f%%, avg write %.1f KB, across-page %.1f%%\n",
		st.Requests, 100*st.WriteRatio(), st.AvgWriteKB(), 100*st.AcrossRatio())

	if r == nil {
		r, err = across.NewRunnerWithHostCache(scheme, cfg, *cachePages)
		if err != nil {
			fatal(err)
		}
		if !*noAge {
			if err := r.Age(across.DefaultAging()); err != nil {
				fatal(err)
			}
		}
	}
	if *snapOut != "" {
		blob, err := r.Snapshot()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*snapOut, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot: %d bytes -> %s\n", len(blob), *snapOut)
	}

	var chk *across.Checker
	if *checkFlag || *auditEvery > 0 {
		chk, err = r.EnableChecks(across.CheckOptions{Shadow: true, AuditEvery: *auditEvery})
		if err != nil {
			fatal(err)
		}
	}

	var closers []io.Closer
	if *traceOut != "" {
		trc, c, err := across.OpenTraceFile(*traceOut, cfg.Chips())
		if err != nil {
			fatal(err)
		}
		r.SetTracer(trc)
		closers = append(closers, c)
	}
	var smp *across.Sampler
	if *metricsOut != "" || *timeline != "" {
		smp, err = across.NewSampler(*metricsInt)
		if err != nil {
			fatal(err)
		}
		if *metricsOut != "" {
			sink, c, err := across.OpenMetricsFile(*metricsOut)
			if err != nil {
				fatal(err)
			}
			smp.SetSink(sink)
			closers = append(closers, c)
		}
		r.SetSampler(smp)
	}

	res, err := r.ReplayQD(reqs, *qd)
	if err != nil {
		fatal(err)
	}
	// Close every artifact writer even if one fails: a failed close means a
	// truncated -trace-out/-metrics-out file, so report each and exit nonzero.
	closeFailed := false
	for _, c := range closers {
		if err := c.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "acrosssim:", err)
			closeFailed = true
		}
	}
	if closeFailed {
		os.Exit(1)
	}
	if smp != nil && smp.Err() != nil {
		fatal(smp.Err())
	}

	c := res.Counters
	fmt.Printf("scheme : %s\n", res.Scheme)
	fmt.Printf("latency: read %.3f ms (p50 %.3f, p99 %.3f), write %.3f ms (p50 %.3f, p99 %.3f), total I/O time %.3f s\n",
		res.AvgReadLatency(), res.ReadLat.P50(), res.ReadLat.P99(),
		res.AvgWriteLatency(), res.WriteLat.P50(), res.WriteLat.P99(),
		res.TotalIOTime()/1000)
	fmt.Printf("writes : %d flash programs (data %d, gc %d, map %d)\n",
		c.FlashWrites(), c.DataWrites, c.GCWrites, c.MapWrites)
	fmt.Printf("reads  : %d flash reads (data %d, gc %d, map %d)\n",
		c.FlashReads(), c.DataReads, c.GCReads, c.MapReads)
	fmt.Printf("erases : %d (endurance indicator); wear mean %.2f sd %.2f min %d max %d per block\n",
		c.Erases, res.Wear.Mean, res.Wear.StdDev, res.Wear.Min, res.Wear.Max)
	fmt.Printf("dram   : %d mapping accesses, table %.2f MB\n",
		c.DRAMAccesses, float64(res.TableBytes)/(1<<20))
	if chk != nil {
		fmt.Printf("verify : clean — %d device audits, %d sector checks\n",
			chk.Audits(), chk.SectorChecks())
	}
	if res.Across != nil {
		a := res.Across
		d, p, u := a.ComponentShares()
		fmt.Printf("across : %d areas written (direct %.1f%%, profitable-merge %.1f%%, unprofitable %.1f%%), rollback ratio %.1f%%\n",
			a.AreasTouched(), 100*d, 100*p, 100*u, 100*a.RollbackRatio())
		fmt.Printf("         %d direct reads, %d merged reads\n", a.DirectReads, a.MergedReads)
	}
	if smp != nil && *timeline != "" {
		fmt.Println()
		report.TimelineLatency(smp.Samples()).RenderTo(os.Stdout, *timeline)
		report.TimelineUtilisation(smp.Samples()).RenderTo(os.Stdout, *timeline)
	}
}

// loadRequests is the one trace loader of both modes: a scenario stream, a
// CSV trace file, or a profile trace sized to logicalSectors (the device's,
// or the fleet volume's in fleet mode).
func loadRequests(logicalSectors int64) []across.Request {
	switch {
	case *scenarioName != "" || *scenarioIn != "":
		return loadScenarioStream(logicalSectors)
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		// Auto-detect SYSTOR '17 vs MSR Cambridge format.
		reqs, err := across.ReadTraceAuto(f)
		if err != nil {
			fatal(err)
		}
		return reqs
	case *profile != "":
		p, err := across.Profile(*profile)
		if err != nil {
			fatal(err)
		}
		reqs, err := across.GenerateTrace(p.Scale(*scale), logicalSectors)
		if err != nil {
			fatal(err)
		}
		return reqs
	}
	fatal(fmt.Errorf("need -trace FILE or -profile lunN"))
	return nil
}

// snapshotErr names the file a -snapshot-in that does not open came from and,
// for one of another format version, the way out: a snapshot is a cache of an
// aged device, refused and made again, never migrated.
func snapshotErr(file string, err error) error {
	if errors.Is(err, snapshot.ErrVersion) {
		return fmt.Errorf("%s: %w; re-create it with -snapshot-out", file, err)
	}
	return fmt.Errorf("%s: %w", file, err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acrosssim:", err)
	os.Exit(1)
}
