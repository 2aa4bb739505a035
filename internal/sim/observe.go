package sim

import (
	"math"
	"math/bits"

	"across/internal/ftl"
	"across/internal/obs"
	"across/internal/trace"
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

// slabSamples is how many samples' busy columns one allocation holds.
const slabSamples = 64

// sampleFeed is one sampled replay's view of live state: what the engine
// records per served request, and fill, which the sampler calls to read it
// into a sample it emits. The scheme's capabilities are resolved once, at
// newSampleFeed; nothing here runs without a sampler installed.
type sampleFeed struct {
	dev   *ftl.Device
	res   *Result
	alloc *ftl.Allocator // nil when the scheme has none
	cmt   cmtCensus      // nil when the scheme has none

	spp       int64
	pageShift int // log2(spp) when spp is a power of two, else -1

	hostPagesWritten int64
	lastDone         float64 // latest completion served
	inflight         inflight
	slab             []float64 // busy columns not yet handed to a sample
}

func (r *Runner) newSampleFeed(res *Result) *sampleFeed {
	f := &sampleFeed{
		dev:       r.Scheme.Device(),
		res:       res,
		spp:       int64(r.Conf.SectorsPerPage()),
		pageShift: -1,
		inflight:  inflight{q: make([]span, 0, 2*windowMin), limit: windowMin},
	}
	if f.spp&(f.spp-1) == 0 {
		f.pageShift = bits.TrailingZeros64(uint64(f.spp))
	}
	if al, ok := r.Scheme.(allocatorOwner); ok {
		f.alloc = al.Allocator()
	}
	if cs, ok := r.Scheme.(cmtCensus); ok {
		f.cmt = cs
	}
	return f
}

// served records one request the scheme served: issued at issue, done at
// done. Dispatch validated it, so its offset is not negative and a shift
// counts its pages as the division does.
func (f *sampleFeed) served(req trace.Request, issue, done float64) {
	if req.Op == trace.OpWrite {
		if s := f.pageShift; s >= 0 {
			f.hostPagesWritten += (req.End()-1)>>s - req.Offset>>s + 1
		} else {
			f.hostPagesWritten += req.LastLPN(int(f.spp)) - req.FirstLPN(int(f.spp)) + 1
		}
	}
	f.inflight.add(issue, done)
	if done > f.lastDone {
		f.lastDone = done
	}
}

// fill populates a sample's gauge and cumulative fields from live replay
// state, counting the queue depth as of the sample's time. Its per-chip
// columns are carved from a slab as capped slices, so no sample's column
// can grow into its neighbour's.
func (f *sampleFeed) fill(sm *obs.Sample) {
	dev := f.dev
	sm.QueueDepth = f.inflight.depth(sm.TimeMs)
	chips := dev.Sched.Chips()
	if len(f.slab) < 2*chips {
		f.slab = make([]float64, 2*chips*slabSamples)
	}
	// The sampler fills the second column.
	sm.ChipBusyMs = f.slab[:chips:chips]
	sm.ChipBusyFrac = f.slab[chips : 2*chips : 2*chips]
	f.slab = f.slab[2*chips:]
	for i := range sm.ChipBusyMs {
		sm.ChipBusyMs[i] = dev.Sched.BusyTime(i)
	}
	res := f.res
	sm.CumRequests = res.Requests
	sm.CumReads = res.ReadCount
	sm.CumWrites = res.WriteCount
	sm.CumReadLatSumMs = res.ReadLatencySum
	sm.CumWriteLatSumMs = res.WriteLatencySum
	sm.CumFlashReads = dev.Count.FlashReads()
	sm.CumFlashWrites = dev.Count.FlashWrites()
	sm.CumErases = dev.Count.Erases
	sm.CumGCInvocations = dev.Count.GCInvocations
	sm.CumHostPagesWritten = f.hostPagesWritten
	if f.hostPagesWritten > 0 {
		sm.WAF = float64(sm.CumFlashWrites) / float64(f.hostPagesWritten)
	}
	if f.alloc != nil {
		sm.GCDebtPages = f.alloc.GCDebtPages()
	}
	if f.cmt != nil {
		if st := f.cmt.CMTStats(); st.Lookups > 0 {
			sm.CMTHitRate = float64(st.Hits) / float64(st.Lookups)
		}
	}
}

// windowMin is the fewest requests inflight lets its window hold before it
// compacts without being asked for a depth.
const windowMin = 1024

// span is one served request as inflight keeps it: its issue time and its
// completion.
type span struct{ issue, done float64 }

// inflight counts the sampler's queue depth: the requests served whose
// completion no later issue has reached. A request leaves the set at the
// first issue at or after its completion, in whatever order issues come,
// so a completion stays only while it is later than every issue since its
// own. add records each served request in a window in O(1); depth applies
// that rule once, when a sample asks: a window entry is kept when its
// completion is later than the running maximum of the issues after it and
// of the query time, and an earlier survivor when its completion is later
// than that maximum over the whole window. Dropping is final, so depth
// compacts the window into the survivors. Without a query for long, add
// compacts on its own once the window outgrows both windowMin and the
// survivors, so memory stays within the backlog plus one window and every
// entry is scanned a bounded number of times.
type inflight struct {
	q     []span // q[:kept] survived the last compaction; q[kept:] is the window
	kept  int
	limit int // len(q) at which add compacts
}

// add records a request issued at issue that completes at done.
func (f *inflight) add(issue, done float64) {
	f.q = append(f.q, span{issue, done})
	if len(f.q) >= f.limit {
		f.compact(math.Inf(-1))
	}
}

// depth returns how many recorded requests are in flight at t: the issue
// of the request about to be served, or the end of the run.
func (f *inflight) depth(t float64) int {
	f.compact(t)
	return f.kept
}

// compact drops every request an issue at t or a window issue after its own
// has reached, and folds the window into the survivors.
func (f *inflight) compact(t float64) {
	q := f.q
	w, m := len(q), t
	for j := len(q) - 1; j >= f.kept; j-- {
		s := q[j]
		if s.done > m {
			w--
			q[w] = s // w >= j: survivors pack at the back
		}
		if s.issue > m {
			m = s.issue
		}
	}
	k := 0
	for _, s := range q[:f.kept] {
		if s.done > m {
			q[k] = s
			k++
		}
	}
	k += copy(q[k:], q[w:])
	f.q, f.kept = q[:k], k
	f.limit = k + max(windowMin, k)
}
