package main

import (
	"fmt"
	"os"

	"across"
	"across/internal/runspec"
)

// loadRequests produces the run's request stream for logicalSectors (the
// device's, or the fleet volume's): a stored trace-v2 stream (-scenario-in)
// or the spec's own workload. A scenario stream is sealed to -scenario-out
// when asked, and its summary printed.
func loadRequests(sp *runspec.Spec, once *runspec.ScenarioOnce, logicalSectors int64) []across.Request {
	var stream *across.ScenarioStream
	var err error
	switch {
	case *scenarioIn != "":
		var blob []byte
		if blob, err = os.ReadFile(*scenarioIn); err != nil {
			fatal(err)
		}
		if stream, err = across.DecodeScenarioStream(blob); err != nil {
			fatal(err)
		}
		if stream.LogicalSectors != logicalSectors {
			fatal(fmt.Errorf("scenario stream %s was generated for %d logical sectors, device has %d",
				*scenarioIn, stream.LogicalSectors, logicalSectors))
		}
	case sp.Scenario != nil:
		if stream, err = sp.Stream(once, logicalSectors); err != nil {
			fatal(err)
		}
	default:
		reqs, _, err := sp.Requests(logicalSectors)
		if err != nil {
			fatal(err)
		}
		return reqs
	}
	if *scenarioOut != "" {
		blob, err := across.EncodeScenarioStream(stream)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*scenarioOut, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("tracev2 : %d bytes -> %s\n", len(blob), *scenarioOut)
	}
	fmt.Printf("scenario: %s, %d cohorts\n", stream.Scenario, len(stream.Cohorts))
	for _, c := range stream.Cohorts {
		fmt.Printf("  cohort: %-12s %8d requests, partition [%d, +%d) sectors\n",
			c.Name, c.Requests, c.StartSector, c.Sectors)
	}
	return stream.Requests
}
