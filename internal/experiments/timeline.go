package experiments

import (
	"fmt"
	"io"

	"across/internal/obs"
	"across/internal/report"
	"across/internal/sim"
)

// timelineSamples is the row budget when no explicit interval is set: the
// replay's arrival span is divided into this many windows, so the table
// stays readable at any trace scale.
const timelineSamples = 24

// extTimelineExperiment replays the first Table 2 trace with the metrics
// sampler attached and renders the time-series view: per-window latency,
// queue depth, WAF and GC debt for each scheme, plus the per-chip busy
// fractions for Across-FTL. With Config.TraceOut / Config.MetricsOut set it
// also writes the Across-FTL replay's execution trace (Chrome trace_event
// for Perfetto, or JSONL) and metrics series to those paths.
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
			interval := s.Cfg.MetricsIntervalMs
			if interval <= 0 {
				if n := len(reqs); n > 1 {
					interval = (reqs[n-1].Time - reqs[0].Time) / timelineSamples
				}
				if interval <= 0 {
					interval = 50
				}
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
				var closers []io.Closer
				if kind == sim.KindAcross {
					if s.Cfg.TraceOut != "" {
						trc, c, err := obs.OpenTrace(s.Cfg.TraceOut, s.Cfg.SSD.Chips())
						if err != nil {
							return err
						}
						r.SetTracer(trc)
						closers = append(closers, c)
					}
					if s.Cfg.MetricsOut != "" {
						sink, c, err := obs.OpenMetrics(s.Cfg.MetricsOut)
						if err != nil {
							return err
						}
						smp.SetSink(sink)
						closers = append(closers, c)
					}
				}
				r.SetSampler(smp)
				if _, err := r.Replay(reqs); err != nil {
					return err
				}
				for _, c := range closers {
					if err := c.Close(); err != nil {
						return err
					}
				}
				if err := smp.Err(); err != nil {
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
