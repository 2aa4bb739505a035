// Command acrosssim replays a block trace against one FTL scheme and prints
// the measured metrics.
//
// Its flags decode into the run spec acrossd takes as a submit-body
// (internal/runspec), so the two refuse and resolve the same runs. The
// workload is a built-in Table 2 profile (-profile lun1..lun6), a scenario
// (-scenario), or a SYSTOR '17 / MSR Cambridge CSV file (-trace) wrapped as
// a one-cohort scenario, exactly as acrossd's trace_path. Example:
//
//	acrosssim -profile lun1 -scheme Across-FTL -scale 0.05
//	acrosssim -trace mytrace.csv -scheme FTL -page 4096
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"across"
	"across/internal/fleet"
	"across/internal/obs"
	"across/internal/report"
	"across/internal/runspec"
	"across/internal/sim"
	"across/internal/snapshot"
	"across/internal/ssdconf"
)

var (
	schemeName = flag.String("scheme", string(across.AcrossFTL), sim.KindList(" | "))
	traceFile  = flag.String("trace", "", "SYSTOR or MSR CSV trace file, replayed as a one-cohort scenario: offsets fold into the device, arrivals are time-sorted, at most 256 MiB")
	profile    = flag.String("profile", "", "built-in workload profile (lun1..lun6)")
	scale      = flag.Float64("scale", 0.05, "fraction of the workload's requests, in (0,1] (0 = the default; a -trace file replays whole unless -scale is given)")
	pageBytes  = flag.Int("page", 8192, "flash page size in bytes (4096, 8192, 16384)")
	full       = flag.Bool("full", false, "full 128 GiB Table 1 geometry")
	noAge      = flag.Bool("no-age", false, "skip device aging")
	qd         = flag.Int("qd", 0, "bound outstanding requests (0 = open loop)")

	scenarioName = flag.String("scenario", "", "scenario workload: builtin name (stationary | burst | daynight | mixed); \"trace\" with -trace is a second spelling of -trace")
	scenarioIn   = flag.String("scenario-in", "", "replay a stored trace-v2 scenario stream instead of generating one")
	scenarioOut  = flag.String("scenario-out", "", "write the generated scenario stream as a trace-v2 container to FILE")

	fleetN  = flag.Int("fleet", 0, "compose N devices into one logical volume (0 = single device)")
	layout  = flag.String("layout", "raid0", "fleet layout: concat | raid0 | raid10 (with -fleet)")
	chunkKB = flag.Int("chunk-kb", fleet.DefaultChunkKB, "fleet stripe chunk in KB (with -fleet; ignored by concat)")

	snapOut = flag.String("snapshot-out", "", "write a warm-state snapshot of the (aged) device to FILE before replaying")
	snapIn  = flag.String("snapshot-in", "", "restore the device from a warm-state snapshot instead of building and aging one (-scheme/-page/-full/-no-age come from the snapshot and are ignored)")

	checkFlag  = flag.Bool("check", false, "verify the replay: shadow model on every request, device audit at end of run")
	auditEvery = flag.Int64("audit-every", 0, "with -check: also run the device-wide audit every N requests (implies -check)")

	traceOut   = flag.String("trace-out", "", "write an execution trace (.jsonl = event lines; anything else = Chrome trace_event JSON for Perfetto)")
	metricsOut = flag.String("metrics-out", "", "write sampled time-series metrics as JSONL")
	metricsInt = flag.Float64("metrics-interval-ms", 50, "sampling interval in simulated ms (with -metrics-out or -timeline)")
	timeline   = flag.String("timeline", "", "print sampled timeline tables after the run (text | markdown | csv)")
)

// runSpec decodes the run's flags into a normalised spec. -profile,
// -scenario and -trace each name the workload and are mutually exclusive,
// -scenario-in replaces all three, and the single-device artifacts have no
// fleet story yet: each device would need its own file, so -fleet refuses
// them rather than write device 0's alone.
func runSpec() runspec.Spec {
	sp := runspec.Spec{
		Type: "replay", Scheme: *schemeName, Profile: *profile, Scale: *scale,
		Page: *pageBytes, QD: *qd, Age: !*noAge, Full: *full,
	}
	switch {
	case *scenarioIn != "" && (*profile != "" || *scenarioName != "" || *traceFile != ""):
		fatal(errors.New("-scenario-in is mutually exclusive with -profile, -scenario and -trace"))
	case *traceFile != "" || *scenarioName == "trace":
		if *scenarioName != "" && *scenarioName != "trace" {
			fatal(fmt.Errorf("-scenario %s and -trace are mutually exclusive", *scenarioName))
		}
		if *traceFile == "" {
			fatal(errors.New("-scenario trace needs -trace FILE"))
		}
		sp.Scenario = &runspec.ScenarioSpec{TracePath: *traceFile}
		// A recorded workload replays whole: the 0.05 default is a quick-run
		// knob for synthetic ones. An explicit -scale still truncates.
		if !scaleSet() {
			sp.Scale = 1
		}
	case *scenarioName != "":
		sp.Scenario = &runspec.ScenarioSpec{Name: *scenarioName}
	case *profile == "" && *scenarioIn == "":
		fatal(errors.New("need -profile lunN, -scenario NAME, -trace FILE or -scenario-in FILE"))
	}
	if *fleetN != 0 {
		switch {
		case *traceOut != "":
			fatal(errors.New("-trace-out is not supported with -fleet"))
		case *metricsOut != "":
			fatal(errors.New("-metrics-out is not supported with -fleet"))
		case *timeline != "":
			fatal(errors.New("-timeline is not supported with -fleet"))
		}
		sp.Fleet = &runspec.FleetSpec{Devices: *fleetN, Layout: *layout, ChunkKB: *chunkKB}
	}
	sp.Normalise()
	return sp
}

// scaleSet reports whether -scale was given explicitly (not the 0.05
// default).
func scaleSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "scale" })
	return set
}

func main() {
	flag.Parse()
	sp := runSpec()
	// A stored stream stands in for the spec's workload, so only the device
	// half of the spec is checked against it.
	var once runspec.ScenarioOnce
	var err error
	if *scenarioIn != "" {
		err = sp.ValidateDevice()
	} else {
		err = sp.ValidateOnce(&once)
	}
	if err != nil {
		fatal(err)
	}

	// A snapshot fixes the device: scheme kind and geometry both come from
	// the blob, so restore before trace generation and let the embedded
	// config drive workload sizing.
	cfg := sp.Config()
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

	// The trace is sized before anything is built: to the device, or in
	// fleet mode to the volume.
	sectors, err := sp.LogicalSectors(cfg)
	if err != nil {
		fatal(err)
	}
	reqs := loadRequests(&sp, &once, sectors)
	st := across.TraceStats(reqs, cfg.PageBytes)

	// One device, built and aged here in both modes: the run's own, or the
	// one every fleet device forks. A fresh fleet needs none: its devices
	// fork FreshCheckpoint.
	scheme := across.Scheme(sp.Scheme)
	if r == nil && (sp.Fleet == nil || sp.Age) {
		r, err = across.NewRunner(scheme, cfg)
		if err != nil {
			fatal(err)
		}
		if sp.Age {
			if err := r.Age(across.DefaultAging()); err != nil {
				fatal(err)
			}
		}
	}

	var v *across.Fleet
	if sp.Fleet != nil {
		var cp *across.Checkpoint
		if r != nil {
			cp, err = r.Checkpoint()
		} else {
			cp, err = across.FreshCheckpoint(scheme, cfg)
		}
		if err == nil {
			v, err = across.NewFleet(cp, sp.Volume())
		}
		if err != nil {
			fatal(err)
		}
		// Device 0 stands in for the device it forked, which is let go:
		// until the replay it snapshots to the same bytes.
		r = v.Runners[0]
	}

	fmt.Printf("device : %s\n", cfg.String())
	if v != nil {
		fmt.Printf("fleet  : %d devices, %s, chunk %d KB, %.1f GiB logical\n",
			v.Devices(), v.Layout(), v.ChunkSectors()*ssdconf.SectorBytes/1024,
			float64(v.LogicalSectors())*ssdconf.SectorBytes/(1<<30))
	}
	fmt.Printf("trace  : %d requests, write ratio %.1f%%, avg write %.1f KB, across-page %.1f%%\n",
		st.Requests, 100*st.WriteRatio(), st.AvgWriteKB(), 100*st.AcrossRatio())
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
	if v != nil {
		runFleet(v, reqs, sp.QD)
		return
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
	var metrics *os.File
	if *metricsOut != "" || *timeline != "" {
		smp, err = across.NewSampler(*metricsInt)
		if err != nil {
			fatal(err)
		}
		r.SetSampler(smp)
	}
	if *metricsOut != "" {
		if metrics, err = os.Create(*metricsOut); err != nil {
			fatal(err)
		}
	}

	res, err := r.ReplayQD(reqs, sp.QD)
	if err != nil {
		fatal(err)
	}
	// Write the series, then close every artifact writer even if one fails:
	// a failure means a truncated -trace-out/-metrics-out file, so report
	// each and exit nonzero.
	var errs []error
	if metrics != nil {
		bw := bufio.NewWriter(metrics)
		err := obs.WriteNDJSON(bw, smp.Samples())
		if err == nil {
			err = bw.Flush()
		}
		errs = append(errs, err)
		closers = append(closers, metrics)
	}
	for _, c := range closers {
		errs = append(errs, c.Close())
	}
	if err := errors.Join(errs...); err != nil {
		fatal(err)
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
