package experiments

import (
	"io"

	"across/internal/report"
	"across/internal/sim"
)

// Extensions returns studies that go beyond the paper's figures but fall
// out of the same instrumented runs: the write-latency tail (the paper
// cites the partial-GC long-tail line of work), the per-block wear
// distribution behind the erase-count endurance metric, and a DFTL bracket
// that separates table-spilling overhead from sub-page-granularity
// overhead — and the two studies that take the schemes beyond one SSD under
// one stationary trace: striped multi-device volumes (ext-fleet) and
// temporal, multi-tenant scenarios (ext-scenario). cmd/experiments -ext runs
// them in this order.
func Extensions() []Experiment {
	return []Experiment{
		extTailExperiment(),
		extWearExperiment(),
		extDFTLExperiment(),
		extUtilExperiment(),
		extTimelineExperiment(),
		extFleetExperiment(),
		extScenarioExperiment(),
	}
}

// extUtilExperiment reports chip utilisation and balance: how much of the
// device's service capacity each scheme consumes for the same host work,
// and whether dynamic allocation keeps the chips evenly loaded.
func extUtilExperiment() Experiment {
	return Experiment{
		ID:    "ext-util",
		Title: "Chip utilisation (extension; not a paper figure)",
		Paper: "not in the paper; flash-op savings should appear as lower device utilisation for the same offered load",
		Run: func(s *Session, w io.Writer) error {
			results, err := s.comparison()
			if err != nil {
				return err
			}
			pb := s.Cfg.SSD.PageBytes
			t := report.New("Chip busy fraction over the trace span",
				"Trace", "Scheme", "min chip", "max chip", "imbalance")
			for _, lun := range s.lunNames() {
				for _, kind := range sim.Kinds() {
					res := results[runKey{kind, lun, pb}]
					lo, hi := res.UtilisationSpread()
					imb := "n/a"
					if lo > 0 {
						imb = report.F(hi/lo, 2)
					}
					t.Add(lun, string(kind), report.Pct(lo), report.Pct(hi), imb)
				}
			}
			t.Note = "imbalance = max/min; values near 1.0 mean the channel-striped allocator is balancing well."
			t.RenderTo(w, s.Cfg.Format)
			return nil
		},
	}
}

// extDFTLExperiment compares the DRAM-resident baseline, demand-paged DFTL
// and MRSM: DFTL spills a page-granularity table, MRSM a sub-page one, so
// the gap between them is the cost of granularity rather than spilling.
func extDFTLExperiment() Experiment {
	return Experiment{
		ID:    "ext-dftl",
		Title: "DFTL bracket (extension; not a paper figure)",
		Paper: "not in the paper; its baseline holds the table in DRAM — DFTL shows how much of MRSM's overhead is table spilling vs sub-page granularity",
		Run: func(s *Session, w io.Writer) error {
			pb := s.Cfg.SSD.PageBytes
			luns := s.lunNames()[:2]
			kinds := []sim.SchemeKind{sim.KindFTL, sim.KindDFTL, sim.KindMRSM}
			results, err := s.Results(pb, luns, kinds)
			if err != nil {
				return err
			}
			t := report.New("Map traffic and latency: FTL vs DFTL vs MRSM",
				"Trace", "Scheme", "map writes", "map reads", "write lat (ms)", "read lat (ms)", "erases")
			for _, lun := range luns {
				for _, kind := range kinds {
					res := results[runKey{kind, lun, pb}]
					t.Add(lun, string(kind),
						report.N(res.Counters.MapWrites),
						report.N(res.Counters.MapReads),
						report.F(res.AvgWriteLatency(), 3),
						report.F(res.AvgReadLatency(), 3),
						report.N(res.Counters.Erases))
				}
			}
			t.Note = "DFTL spills page-granularity translation pages; MRSM's additional cost over DFTL is the sub-page machinery."
			t.RenderTo(w, s.Cfg.Format)
			return nil
		},
	}
}

// extTailExperiment reports write-latency percentiles per scheme.
func extTailExperiment() Experiment {
	return Experiment{
		ID:    "ext-tail",
		Title: "Write-latency tail (extension; not a paper figure)",
		Paper: "not reported in the paper; GC bursts dominate the tail, so the flash-write savings of Across-FTL should show up amplified at p99",
		Run: func(s *Session, w io.Writer) error {
			results, err := s.comparison()
			if err != nil {
				return err
			}
			pb := s.Cfg.SSD.PageBytes
			t := report.New("Write latency percentiles (ms)",
				"Trace", "Scheme", "p50", "p95", "p99", "p99.9", "max")
			for _, lun := range s.lunNames() {
				for _, kind := range sim.Kinds() {
					res := results[runKey{kind, lun, pb}]
					t.Add(lun, string(kind),
						report.F(res.WriteLat.P50(), 3),
						report.F(res.WriteLat.P95(), 3),
						report.F(res.WriteLat.P99(), 3),
						report.F(res.WriteLat.P999(), 3),
						report.F(res.WriteLat.Max(), 3))
				}
			}
			t.RenderTo(w, s.Cfg.Format)
			return nil
		},
	}
}

// extWearExperiment reports the per-block erase distribution per scheme.
func extWearExperiment() Experiment {
	return Experiment{
		ID:    "ext-wear",
		Title: "Per-block wear distribution (extension; not a paper figure)",
		Paper: "not reported in the paper; Fig 11 gives totals — the distribution shows whether the totals translate into lifetime",
		Run: func(s *Session, w io.Writer) error {
			results, err := s.comparison()
			if err != nil {
				return err
			}
			pb := s.Cfg.SSD.PageBytes
			t := report.New("Per-block erase counts (includes warm-up wear)",
				"Trace", "Scheme", "mean", "stddev", "min", "max")
			for _, lun := range s.lunNames() {
				for _, kind := range sim.Kinds() {
					res := results[runKey{kind, lun, pb}]
					t.Add(lun, string(kind),
						report.F(res.Wear.Mean, 2),
						report.F(res.Wear.StdDev, 2),
						report.N(res.Wear.Min),
						report.N(res.Wear.Max))
				}
			}
			t.RenderTo(w, s.Cfg.Format)
			return nil
		},
	}
}
