package main

import (
	"context"
	"fmt"
	"os"

	"across"
	"across/internal/report"
)

// runFleet is the rest of the -fleet mode: replay the trace through the
// volume's layout, and print the fleet summary plus the per-device balance
// table.
func runFleet(v *across.Fleet, reqs []across.Request, qd int) {
	check := *checkFlag || *auditEvery > 0
	res, err := v.Replay(context.Background(), reqs, qd)
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
		100*res.LogicalClasses().Ratio(across.ClassAcross), 100*res.SubClasses.Ratio(across.ClassAcross),
		100*res.LogicalClasses().Ratio(across.ClassUnaligned), 100*res.SubClasses.Ratio(across.ClassUnaligned))
	fmt.Printf("writes : %d flash programs (data %d, gc %d, map %d)\n",
		c.FlashWrites(), c.DataWrites, c.GCWrites, c.MapWrites)
	fmt.Printf("erases : %d across the fleet\n", c.Erases)
	if check {
		fmt.Printf("verify : clean — all %d devices audited\n", v.Devices())
	}
	fmt.Println()
	report.FleetDeviceTable("per-device balance", fleetDeviceRows(res, v.Conf.Chips()), res.Fanout(), os.Stdout)
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
