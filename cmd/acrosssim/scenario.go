package main

import (
	"flag"
	"fmt"
	"os"

	"across"
)

// loadScenarioStream produces the request stream for scenario mode: either
// decoding a stored trace-v2 container (-scenario-in) or building the named
// scenario — a builtin, or a real trace wrapped as a cohort — and generating
// it for the device. The generated stream is optionally sealed back to a
// trace-v2 file (-scenario-out), and the scenario summary is printed.
func loadScenarioStream(logicalSectors int64) []across.Request {
	var stream *across.ScenarioStream
	if *scenarioIn != "" {
		blob, err := os.ReadFile(*scenarioIn)
		if err != nil {
			fatal(err)
		}
		stream, err = across.DecodeScenarioStream(blob)
		if err != nil {
			fatal(err)
		}
		if stream.LogicalSectors != logicalSectors {
			fatal(fmt.Errorf("scenario stream %s was generated for %d logical sectors, device has %d",
				*scenarioIn, stream.LogicalSectors, logicalSectors))
		}
	} else {
		var sc across.Scenario
		if *scenarioName == "trace" {
			if *traceFile == "" {
				fatal(fmt.Errorf("-scenario trace needs -trace FILE"))
			}
			f, err := os.Open(*traceFile)
			if err != nil {
				fatal(err)
			}
			reqs, err := across.ReadTraceAuto(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			sc = across.ScenarioFromTrace("trace", reqs)
			// A wrapped real trace replays in full by default, matching plain
			// -trace: the 0.05 -scale default is a synthetic-workload
			// quick-run knob, and silently truncating a recorded workload
			// would change the experiment. An explicit -scale still
			// truncates — loudly.
			if scaleSet() {
				sc = sc.Scale(*scale)
				if kept := len(sc.Cohorts[0].Trace); kept < len(reqs) {
					fmt.Printf("scale  : -scale %g keeps the trace's first %d of %d requests\n",
						*scale, kept, len(reqs))
				}
			}
		} else {
			var err error
			sc, err = across.BuiltinScenario(*scenarioName)
			if err != nil {
				fatal(err)
			}
			sc = sc.Scale(*scale)
		}
		var err error
		stream, err = sc.Generate(logicalSectors)
		if err != nil {
			fatal(err)
		}
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

// scaleSet reports whether -scale was given explicitly (not the 0.05
// default).
func scaleSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "scale" })
	return set
}
