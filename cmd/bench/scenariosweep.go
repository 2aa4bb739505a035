package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"across/internal/report"
	"across/internal/scenario"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// ScenarioSweepReport is the JSON document of -scenariosweep mode: every
// scheme replayed against every scenario (the temporal builtins plus the
// checked-in MSR Cambridge trace wrapped as a scenario) on two device page
// sizes. Each cell is one open-loop arrival-paced replay of the scenario
// stream on a pre-aged device forked from a per-(scheme, device) snapshot,
// so cells differ only in the workload's temporal and tenant structure.
type ScenarioSweepReport struct {
	Benchmark   string  `json:"benchmark"`
	GoVersion   string  `json:"go_version"`
	GitRevision string  `json:"git_revision,omitempty"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Scale       float64 `json:"scale"`
	Trace       string  `json:"trace"`

	Cells []ScenarioCell `json:"cells"`
}

// ScenarioCell is one (scheme, scenario, device) measurement.
type ScenarioCell struct {
	Scheme   string `json:"scheme"`
	Scenario string `json:"scenario"`
	Device   string `json:"device"`
	PageKB   int    `json:"page_kb"`
	Cohorts  int    `json:"cohorts"`
	Requests int64  `json:"requests"`

	// ThroughputRPS is requests completed per simulated second of the
	// measured makespan (arrival span plus service/GC drain).
	ThroughputRPS float64 `json:"throughput_rps"`
	AvgReadMs     float64 `json:"avg_read_ms"`
	AvgWriteMs    float64 `json:"avg_write_ms"`
	ReadP99Ms     float64 `json:"read_p99_ms"`
	WriteP99Ms    float64 `json:"write_p99_ms"`

	// WAF is flash data programs (host plus GC) per host-written page.
	// Across-FTL can land below 1.0: realignment merges neighbouring
	// partial-page writes into fewer programs than the page-granular
	// host count.
	WAF    float64 `json:"waf"`
	Erases int64   `json:"erases"`
}

// scenarioSweepDevices returns the device matrix: the bench device at its
// native 8 KB page and a 16 KB variant, the page-size axis the paper's
// across-page mechanism is sensitive to.
func scenarioSweepDevices() []ssdconf.Config {
	return []ssdconf.Config{benchSSD(), benchSSD().WithPageBytes(16384)}
}

// scenarioSweepStreams generates every scenario for one device: the
// builtins at the given scale plus the real trace as a single-cohort
// scenario (never scaled — the fixture is already small).
func scenarioSweepStreams(conf ssdconf.Config, scale float64, tracePath string) ([]*scenario.Stream, error) {
	var streams []*scenario.Stream
	for _, name := range scenario.Names() {
		sc, err := scenario.Builtin(name)
		if err != nil {
			return nil, err
		}
		st, err := sc.Scale(scale).Generate(conf.LogicalSectors())
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		streams = append(streams, st)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	reqs, err := trace.ReadAllAuto(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", tracePath, err)
	}
	st, err := scenario.FromTrace("msr-trace", reqs).Generate(conf.LogicalSectors())
	if err != nil {
		return nil, fmt.Errorf("scenario msr-trace: %w", err)
	}
	return append(streams, st), nil
}

// hostPagesWritten is the WAF denominator: flash pages touched by host
// writes at the device's page granularity.
func hostPagesWritten(reqs []trace.Request, spp int) int64 {
	var pages int64
	for _, r := range reqs {
		if r.Op == trace.OpWrite {
			pages += r.LastLPN(spp) - r.FirstLPN(spp) + 1
		}
	}
	return pages
}

// runScenarioCell measures one (scheme, scenario, device) cell on a fresh
// fork of the aged snapshot.
func runScenarioCell(kind sim.SchemeKind, blob []byte, conf ssdconf.Config, st *scenario.Stream) (*ScenarioCell, error) {
	r, err := sim.Restore(blob)
	if err != nil {
		return nil, err
	}
	res, err := r.Replay(st.Requests)
	if err != nil {
		return nil, err
	}

	cell := &ScenarioCell{
		Scheme:     string(kind),
		Scenario:   st.Scenario,
		Device:     conf.String(),
		PageKB:     conf.PageBytes / 1024,
		Cohorts:    len(st.Cohorts),
		Requests:   res.Requests,
		AvgReadMs:  res.AvgReadLatency(),
		AvgWriteMs: res.AvgWriteLatency(),
		ReadP99Ms:  res.ReadLat.P99(),
		WriteP99Ms: res.WriteLat.P99(),
		Erases:     res.Counters.Erases,
	}
	if res.MeasuredSpanMs > 0 {
		cell.ThroughputRPS = float64(res.Requests) / (res.MeasuredSpanMs / 1000)
	}
	if host := hostPagesWritten(st.Requests, conf.SectorsPerPage()); host > 0 {
		cell.WAF = float64(res.Counters.DataWrites+res.Counters.GCWrites) / float64(host)
	}
	return cell, nil
}

// runScenarioSweep executes -scenariosweep and writes the report.
func runScenarioSweep(scale float64, tracePath, out string) error {
	kinds := append(sim.Kinds(), sim.KindDFTL)
	rep := ScenarioSweepReport{
		Benchmark:   "ScenarioMatrixSweep",
		GoVersion:   runtime.Version(),
		GitRevision: gitRevision(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Scale:       scale,
		Trace:       tracePath,
	}

	for _, conf := range scenarioSweepDevices() {
		streams, err := scenarioSweepStreams(conf, scale, tracePath)
		if err != nil {
			return err
		}
		for _, kind := range kinds {
			fmt.Fprintf(os.Stderr, "bench: scenariosweep %s page=%dKB: aging...\n", kind, conf.PageBytes/1024)
			seed, err := sim.NewRunner(kind, conf)
			if err != nil {
				return err
			}
			if err := seed.Age(sim.DefaultAging()); err != nil {
				return err
			}
			blob, err := seed.Snapshot()
			if err != nil {
				return err
			}
			for _, st := range streams {
				cell, err := runScenarioCell(kind, blob, conf, st)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", kind, st.Scenario, err)
				}
				rep.Cells = append(rep.Cells, *cell)
			}
		}
	}

	tbl := report.New("scenario matrix sweep",
		"scheme", "scenario", "page", "reqs", "tput (req/s)", "rd avg", "wr avg", "wr p99", "WAF", "erases")
	for _, c := range rep.Cells {
		tbl.Addf(c.Scheme, c.Scenario, fmt.Sprintf("%dK", c.PageKB), report.N(c.Requests),
			report.F(c.ThroughputRPS, 0), report.F(c.AvgReadMs, 3), report.F(c.AvgWriteMs, 3),
			report.F(c.WriteP99Ms, 3), report.F(c.WAF, 3), report.N(c.Erases))
	}
	tbl.Render(os.Stderr)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	os.Stdout.Write(enc)
	if out != "" {
		return os.WriteFile(out, enc, 0o644)
	}
	return nil
}
