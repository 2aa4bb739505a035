package main

import (
	"fmt"
	"os"

	"across"
	"across/internal/report"
	"across/internal/ssdconf"
)

// fleetOpts carries the parsed fleet-mode flags from main to runFleet.
type fleetOpts struct {
	devices int
	layout  string
	chunkKB int

	scheme     across.Scheme
	cfg        across.Config
	scenario   scenarioOpts
	traceFile  string
	profile    string
	scale      float64
	pageBytes  int
	noAge      bool
	qd         int
	workers    int
	snapIn     string
	snapOut    string
	check      bool
	cachePages int
	traceOut   string
	metricsOut string
	timeline   string
}

// runFleet is the -fleet mode of acrosssim: build (or fork from a snapshot)
// an N-device volume, replay the trace through the layout, and print the
// fleet summary plus the per-device balance table.
func runFleet(o fleetOpts) {
	// Single-device observability artifacts have no fleet story yet: each
	// device would need its own tracer/sampler file. Reject rather than
	// silently produce a device-0-only artifact.
	switch {
	case o.cachePages > 0:
		fatal(fmt.Errorf("-cachepages is not supported with -fleet"))
	case o.traceOut != "":
		fatal(fmt.Errorf("-trace-out is not supported with -fleet"))
	case o.metricsOut != "":
		fatal(fmt.Errorf("-metrics-out is not supported with -fleet"))
	case o.timeline != "":
		fatal(fmt.Errorf("-timeline is not supported with -fleet"))
	}
	layout, err := across.ParseFleetLayout(o.layout)
	if err != nil {
		fatal(err)
	}
	spec := across.FleetSpec{
		Devices:      o.devices,
		Layout:       layout,
		ChunkSectors: int64(o.chunkKB) * 1024 / ssdconf.SectorBytes,
	}

	var v *across.Fleet
	if o.snapIn != "" {
		// The snapshot fixes each device: scheme kind and geometry come from
		// the blob, every device forks from the same warm state.
		blob, err := os.ReadFile(o.snapIn)
		if err != nil {
			fatal(err)
		}
		v, err = across.RestoreFleet(blob, spec)
		if err != nil {
			fatal(snapshotErr(o.snapIn, err))
		}
	} else {
		v, err = across.NewFleet(o.scheme, o.cfg, spec)
		if err != nil {
			fatal(err)
		}
		if !o.noAge {
			if err := v.Age(across.DefaultAging()); err != nil {
				fatal(err)
			}
		}
	}
	cfg := *v.Conf

	var reqs []across.Request
	if o.scenario.active() {
		reqs = loadScenarioStream(o.scenario, v.LogicalSectors())
	} else {
		reqs = loadTrace(o.traceFile, o.profile, o.scale, v.LogicalSectors())
	}
	st := across.TraceStats(reqs, o.pageBytes)
	fmt.Printf("device : %s\n", cfg.String())
	fmt.Printf("fleet  : %d devices, %s, chunk %d KB, %.1f GiB logical\n",
		v.Devices(), v.Layout(), v.ChunkSectors()*ssdconf.SectorBytes/1024,
		float64(v.LogicalSectors())*ssdconf.SectorBytes/(1<<30))
	fmt.Printf("trace  : %d requests, write ratio %.1f%%, avg write %.1f KB, across-page %.1f%%\n",
		st.Requests, 100*st.WriteRatio(), st.AvgWriteKB(), 100*st.AcrossRatio())

	if o.snapOut != "" {
		blob, err := v.WarmSnapshot()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(o.snapOut, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot: %d bytes (device 0; RestoreFleet forks all devices from it) -> %s\n", len(blob), o.snapOut)
	}

	res, err := v.ReplayQD(reqs, o.qd, across.FleetOptions{Workers: o.workers})
	if err != nil {
		fatal(err)
	}
	if o.check {
		if err := v.Audit(); err != nil {
			fatal(err)
		}
	}

	c := res.Counters()
	fmt.Printf("scheme : %s\n", res.Scheme)
	fmt.Printf("latency: read %.3f ms (p50 %.3f, p99 %.3f), write %.3f ms (p50 %.3f, p99 %.3f)\n",
		res.AvgReadLatency(), res.ReadLat.P50(), res.ReadLat.P99(),
		res.AvgWriteLatency(), res.WriteLat.P50(), res.WriteLat.P99())
	fmt.Printf("volume : %.0f req/s over %.1f s makespan, fan-out %.2f sub-requests/request\n",
		res.Throughput(), res.MeasuredSpanMs/1000, res.Fanout())
	fmt.Printf("classes: across-page %.1f%% of logical requests -> %.1f%% of sub-requests (unaligned %.1f%% -> %.1f%%)\n",
		100*res.LogicalClasses.Ratio(across.ClassAcross), 100*res.SubClasses.Ratio(across.ClassAcross),
		100*res.LogicalClasses.Ratio(across.ClassUnaligned), 100*res.SubClasses.Ratio(across.ClassUnaligned))
	fmt.Printf("writes : %d flash programs (data %d, gc %d, map %d)\n",
		c.FlashWrites(), c.DataWrites, c.GCWrites, c.MapWrites)
	fmt.Printf("erases : %d across the fleet\n", c.Erases)
	if o.check {
		fmt.Printf("verify : clean — all %d devices audited\n", v.Devices())
	}
	fmt.Println()
	report.FleetDeviceTable("per-device balance", fleetDeviceRows(res, cfg.Chips()), res.Fanout(), os.Stdout)
}

// fleetDeviceRows adapts a fleet Result to the report renderer's rows.
func fleetDeviceRows(res *across.FleetResult, chips int) []report.FleetDeviceRow {
	rows := make([]report.FleetDeviceRow, len(res.PerDevice))
	for i, d := range res.PerDevice {
		rows[i] = report.FleetDeviceRow{
			Device:      d.Device,
			SubRequests: d.SubRequests,
			Sectors:     d.Sectors,
			BusyMs:      d.BusyMs,
			Util:        res.DeviceUtilisation(d.Device, chips),
			Erases:      d.Counters.Erases,
			GCRuns:      d.Counters.GCInvocations,
		}
	}
	return rows
}

// loadTrace reads a CSV trace file or synthesises a profile trace sized to
// logicalSectors (the fleet volume's capacity in fleet mode).
func loadTrace(traceFile, profile string, scale float64, logicalSectors int64) []across.Request {
	switch {
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		reqs, err := across.ReadTraceAuto(f)
		if err != nil {
			fatal(err)
		}
		return reqs
	case profile != "":
		p, err := across.Profile(profile)
		if err != nil {
			fatal(err)
		}
		reqs, err := across.GenerateTrace(p.Scale(scale), logicalSectors)
		if err != nil {
			fatal(err)
		}
		return reqs
	}
	fatal(fmt.Errorf("need -trace FILE or -profile lunN"))
	return nil
}
