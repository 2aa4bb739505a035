package sim

import (
	"across/internal/ftl"
	"across/internal/obs"
)

// SetTracer installs an event tracer observed by subsequent replays (nil
// disables). The tracer is handed to the device at Replay entry — aging
// runs are never traced — and receives request, flash-command, GC, across
// and cache events. Tracing is observation only: a traced replay produces a
// bit-identical Result to an untraced one (the differential tests assert
// this). A no-op tracer is normalised to nil here, so with tracing
// effectively off the hot path pays one branch per event site and zero
// allocations (the alloc and overhead tests assert both).
func (r *Runner) SetTracer(t obs.Tracer) {
	if obs.IsNop(t) {
		t = nil
	}
	r.tracer = t
}

// SetSampler installs a metrics sampler driven by subsequent replays (nil
// disables). The engine advances it on every request arrival and closes the
// series at the device idle horizon, so the last sample's cumulative fields
// equal the end-of-run Result aggregates.
func (r *Runner) SetSampler(s *obs.Sampler) { r.sampler = s }

// Sampler returns the installed sampler (nil if none).
func (r *Runner) Sampler() *obs.Sampler { return r.sampler }

// fillSample populates a sample's gauge and cumulative fields from live
// replay state. It runs only when a sampler is installed, so its
// allocation (the per-sample busy columns) never touches the untraced path.
func (r *Runner) fillSample(sm *obs.Sample, res *Result, queueDepth int, hostPagesWritten int64) {
	dev := r.Scheme.Device()
	sm.QueueDepth = queueDepth
	// One allocation for both per-chip columns; the sampler fills the second.
	chips := dev.Sched.Chips()
	busy := make([]float64, 2*chips)
	sm.ChipBusyMs, sm.ChipBusyFrac = busy[:chips:chips], busy[chips:]
	for i := range sm.ChipBusyMs {
		sm.ChipBusyMs[i] = dev.Sched.BusyTime(i)
	}
	sm.CumRequests = res.Requests
	sm.CumReads = res.ReadCount
	sm.CumWrites = res.WriteCount
	sm.CumReadLatSumMs = res.ReadLatencySum
	sm.CumWriteLatSumMs = res.WriteLatencySum
	sm.CumFlashReads = dev.Count.FlashReads()
	sm.CumFlashWrites = dev.Count.FlashWrites()
	sm.CumErases = dev.Count.Erases
	sm.CumGCInvocations = dev.Count.GCInvocations
	sm.CumHostPagesWritten = hostPagesWritten
	if hostPagesWritten > 0 {
		sm.WAF = float64(sm.CumFlashWrites) / float64(hostPagesWritten)
	}
	if al, ok := ftl.As[allocatorOwner](r.Scheme); ok {
		if a := al.Allocator(); a != nil {
			sm.GCDebtPages = a.GCDebtPages()
		}
	}
	if cs, ok := ftl.As[cmtCensus](r.Scheme); ok {
		if st := cs.CMTStats(); st.Lookups > 0 {
			sm.CMTHitRate = float64(st.Hits) / float64(st.Lookups)
		}
	}
}
