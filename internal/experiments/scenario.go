package experiments

import (
	"fmt"
	"io"

	"across/internal/report"
	"across/internal/scenario"
	"across/internal/sim"
	"across/internal/trace"
)

// scenarioPages is ext-scenario's device axis: the session's 8 KB device
// and its 16 KB variant, the page sizes the across-page ratio is most
// sensitive to (Fig 13).
var scenarioPages = []int{8192, 16384}

// scenarioCell is one (scheme, scenario, page size) replay of ext-scenario.
type scenarioCell struct {
	Scheme   sim.SchemeKind
	Scenario string
	PageKB   int
	Cohorts  int
	Requests int64

	// Throughput is requests completed per simulated second of the
	// measured makespan (arrival span plus service/GC drain).
	Throughput                     float64
	AvgReadMs, AvgWriteMs, WrP99Ms float64

	// WAF is flash data programs (host plus GC) per host-written page.
	// Across-FTL can land below 1.0: realignment merges neighbouring
	// partial-page writes into fewer programs than the page-granular host
	// count.
	WAF    float64
	Erases int64
}

// hostPagesWritten is the WAF denominator: flash pages touched by host
// writes at the device's page granularity.
func hostPagesWritten(reqs []trace.Request, spp int) int64 {
	var pages int64
	for _, r := range reqs {
		if r.Op == trace.OpWrite {
			pages += int64(r.Pages(spp))
		}
	}
	return pages
}

// scenarioMatrix measures every cell of ext-scenario: per page size, the
// builtin scenarios are generated once and each scheme replays them open
// loop, every replay on a fresh fork of that scheme's warmed device, so
// cells differ only in the workload's temporal and tenant structure.
func (s *Session) scenarioMatrix() ([]scenarioCell, error) {
	var cells []scenarioCell
	for _, pb := range scenarioPages {
		conf := s.Cfg.SSD.WithPageBytes(pb)
		var streams []*scenario.Stream
		for _, name := range scenario.Names() {
			sc, err := scenario.Builtin(name)
			if err != nil {
				return nil, err
			}
			st, err := sc.Scale(s.Cfg.Scale * studyFrac).WithSeedOffset(s.Cfg.SeedOffset).Generate(conf.LogicalSectors())
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", name, err)
			}
			streams = append(streams, st)
		}
		for _, kind := range studyKinds() {
			cp, err := s.checkpoint(kind, conf)
			if err != nil {
				return nil, err
			}
			for _, st := range streams {
				r, err := cp.Fork()
				if err != nil {
					return nil, err
				}
				res, err := r.Replay(st.Requests)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", kind, st.Scenario, err)
				}
				c := scenarioCell{
					Scheme: kind, Scenario: st.Scenario, PageKB: pb / 1024,
					Cohorts: len(st.Cohorts), Requests: res.Requests,
					AvgReadMs: res.AvgReadLatency(), AvgWriteMs: res.AvgWriteLatency(),
					WrP99Ms: res.WriteLat.P99(), Erases: res.Counters.Erases,
					Throughput: res.Throughput(),
				}
				if host := hostPagesWritten(st.Requests, conf.SectorsPerPage()); host > 0 {
					c.WAF = float64(res.Counters.DataWrites+res.Counters.GCWrites) / float64(host)
				}
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// extScenarioExperiment is the scenario matrix of DESIGN §15: every scheme
// against every builtin scenario (stationary, burst, daynight, mixed-tenant)
// on two page sizes.
func extScenarioExperiment() Experiment {
	return Experiment{
		ID:    "ext-scenario",
		Title: "Scenario matrix (extension; not a paper figure)",
		Paper: "not in the paper, whose traces are stationary and single-tenant; asks whether the scheme ranking holds under bursts, diurnal swings and tenants sharing a device",
		Run: func(s *Session, w io.Writer) error {
			cells, err := s.scenarioMatrix()
			if err != nil {
				return err
			}
			t := report.New("Open-loop replay of each builtin scenario",
				"scheme", "scenario", "page", "reqs", "tput (req/s)", "rd avg", "wr avg", "wr p99", "WAF", "erases")
			for _, c := range cells {
				t.Add(string(c.Scheme), c.Scenario, fmt.Sprintf("%dK", c.PageKB), report.N(c.Requests),
					report.F(c.Throughput, 0), report.F(c.AvgReadMs, 3), report.F(c.AvgWriteMs, 3),
					report.F(c.WrP99Ms, 3), report.F(c.WAF, 3), report.N(c.Erases))
			}
			t.Note = "latencies in ms; WAF = flash data programs (host + GC) per host-written page, below 1 when realignment merges partial-page writes"
			t.RenderTo(w, s.Cfg.Format)
			return nil
		},
	}
}
