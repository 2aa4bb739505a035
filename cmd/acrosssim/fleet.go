package main

import (
	"context"
	"fmt"
	"os"

	"across"
	"across/internal/report"
	"across/internal/ssdconf"
)

// runFleet is the -fleet mode of acrosssim: build (or fork from a snapshot)
// an N-device volume, replay the trace through the layout, and print the
// fleet summary plus the per-device balance table.
func runFleet(scheme across.Scheme, cfg across.Config) {
	// Single-device observability artifacts have no fleet story yet: each
	// device would need its own tracer/sampler file. Reject rather than
	// silently produce a device-0-only artifact.
	switch {
	case *cachePages > 0:
		fatal(fmt.Errorf("-cachepages is not supported with -fleet"))
	case *traceOut != "":
		fatal(fmt.Errorf("-trace-out is not supported with -fleet"))
	case *metricsOut != "":
		fatal(fmt.Errorf("-metrics-out is not supported with -fleet"))
	case *timeline != "":
		fatal(fmt.Errorf("-timeline is not supported with -fleet"))
	}
	check := *checkFlag || *auditEvery > 0
	fleetLayout, err := across.ParseFleetLayout(*layout)
	if err != nil {
		fatal(err)
	}
	spec := across.FleetSpec{
		Devices:      *fleetN,
		Layout:       fleetLayout,
		ChunkSectors: int64(*chunkKB) * 1024 / ssdconf.SectorBytes,
	}

	var v *across.Fleet
	if *snapIn != "" {
		// The snapshot fixes each device: scheme kind and geometry come from
		// the blob, every device forks from the same warm state.
		blob, err := os.ReadFile(*snapIn)
		if err != nil {
			fatal(err)
		}
		v, err = across.RestoreFleet(blob, spec)
		if err != nil {
			fatal(snapshotErr(*snapIn, err))
		}
	} else {
		v, err = across.NewFleet(scheme, cfg, spec)
		if err != nil {
			fatal(err)
		}
		if !*noAge {
			if err := v.Age(context.Background(), across.DefaultAging()); err != nil {
				fatal(err)
			}
		}
	}
	cfg = *v.Conf

	reqs := loadRequests(v.LogicalSectors())
	st := across.TraceStats(reqs, *pageBytes)
	fmt.Printf("device : %s\n", cfg.String())
	fmt.Printf("fleet  : %d devices, %s, chunk %d KB, %.1f GiB logical\n",
		v.Devices(), v.Layout(), v.ChunkSectors()*ssdconf.SectorBytes/1024,
		float64(v.LogicalSectors())*ssdconf.SectorBytes/(1<<30))
	fmt.Printf("trace  : %d requests, write ratio %.1f%%, avg write %.1f KB, across-page %.1f%%\n",
		st.Requests, 100*st.WriteRatio(), st.AvgWriteKB(), 100*st.AcrossRatio())

	if *snapOut != "" {
		blob, err := v.WarmSnapshot()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*snapOut, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot: %d bytes (device 0; RestoreFleet forks all devices from it) -> %s\n", len(blob), *snapOut)
	}

	res, err := v.Replay(context.Background(), reqs, *qd)
	if err != nil {
		fatal(err)
	}
	if check {
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
	if check {
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
