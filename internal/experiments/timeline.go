package experiments

import (
	"fmt"
	"io"

	"across/internal/obs"
	"across/internal/report"
	"across/internal/sim"
)

// timelineSamples is the row budget: the replay's arrival span is divided
// into this many windows, so the table stays readable at any trace scale.
const timelineSamples = 24

// extTimelineExperiment replays the first Table 2 trace with the metrics
// sampler attached and renders the time-series view: per-window latency,
// queue depth, WAF and GC debt for each scheme, plus the per-chip busy
// fractions for Across-FTL. The same replay's execution trace and metrics
// series are written by cmd/acrosssim (-trace-out, -metrics-out).
func extTimelineExperiment() Experiment {
	return Experiment{
		ID:    "ext-timeline",
		Title: "Sampled timeline (extension; not a paper figure)",
		Paper: "not in the paper; the end-of-run aggregates of Figs 9-12 as time series, showing when GC pressure and latency spikes occur within the trace",
		Run: func(s *Session, w io.Writer) error {
			luns := s.Luns()
			prof := luns[0]
			reqs, err := s.Trace(prof)
			if err != nil {
				return err
			}
			interval := 50.0
			if n := len(reqs); n > 1 && reqs[n-1].Time > reqs[0].Time {
				interval = (reqs[n-1].Time - reqs[0].Time) / timelineSamples
			}
			for _, kind := range sim.Kinds() {
				cp, err := s.checkpoint(kind, s.Cfg.SSD)
				if err != nil {
					return err
				}
				r, err := cp.Fork()
				if err != nil {
					return err
				}
				smp, err := obs.NewSampler(interval)
				if err != nil {
					return err
				}
				r.SetSampler(smp)
				if _, err := r.Replay(reqs); err != nil {
					return err
				}
				lt := report.TimelineLatency(smp.Samples())
				lt.Title = fmt.Sprintf("Timeline: %s on %s (%.0f ms windows)", kind, prof.Name, interval)
				lt.RenderTo(w, s.Cfg.Format)
				if kind == sim.KindAcross {
					ut := report.TimelineUtilisation(smp.Samples())
					ut.Title = fmt.Sprintf("Per-chip utilisation: %s on %s", kind, prof.Name)
					ut.RenderTo(w, s.Cfg.Format)
				}
			}
			return nil
		},
	}
}
