// agingstudy: how device aging (the §4.1 warm-up to 90% used capacity)
// changes the comparison.
//
// The same workload is replayed on a fresh device and on an aged one, for
// the baseline FTL and Across-FTL. An aged device is where across-page
// re-alignment pays: garbage collection amplifies every extra flash write
// the baseline performs.
//
// Run with: go run ./examples/agingstudy
package main

import (
	"flag"
	"fmt"
	"log"

	"across"
)

func main() {
	scale := flag.Float64("scale", 0.03, "fraction of the lun3 request count")
	flag.Parse()

	cfg := across.ExperimentConfig()
	prof, err := across.Profile("lun3")
	if err != nil {
		log.Fatal(err)
	}
	reqs, err := across.GenerateTrace(prof.Scale(*scale), cfg.LogicalSectors())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload lun3 (%d requests) on %s\n\n", len(reqs), cfg.String())
	fmt.Println("state  scheme       erases  gc-writes  write-lat(ms)  io-time(s)")
	for _, aged := range []bool{false, true} {
		for _, scheme := range []across.Scheme{across.BaselineFTL, across.AcrossFTL} {
			res, err := across.Run(scheme, cfg, reqs, aged)
			if err != nil {
				log.Fatal(err)
			}
			state := "fresh"
			if aged {
				state = "aged "
			}
			fmt.Printf("%s  %-11s  %6d  %9d  %13.3f  %10.2f\n",
				state, res.Scheme, res.Counters.Erases, res.Counters.GCWrites,
				res.AvgWriteLatency(), res.TotalIOTime()/1000)
		}
	}

	fmt.Println("\nAging floods the device with stale pages, so every host write can")
	fmt.Println("trigger garbage collection; the across-page savings compound there.")
	fmt.Println("\nFor the AMerge and AMT-budget ablations, see the tests that pin them")
	fmt.Println("(EXPERIMENTS.md, Ablations).")
}
