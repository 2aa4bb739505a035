package sim

import (
	"across/internal/acrossftl"
	"across/internal/cache"
	"across/internal/ftl"
	"across/internal/stats"
	"across/internal/trace"
)

// OpClassMetrics aggregates per-request observations for one (direction,
// alignment class) bucket — the raw material of Fig 4.
type OpClassMetrics struct {
	Requests   int64
	Sectors    int64
	LatencySum float64 // ms
	Flushes    int64   // flash data programs attributed to these requests
	FlashReads int64   // flash data reads attributed to these requests
}

// LatencyPerSector is the paper's per-sector-size normalisation (Fig 4a/4b).
func (m OpClassMetrics) LatencyPerSector() float64 {
	if m.Sectors == 0 {
		return 0
	}
	return m.LatencySum / float64(m.Sectors)
}

// FlushesPerSector is Fig 4(c)'s flush-write count per sector-size.
func (m OpClassMetrics) FlushesPerSector() float64 {
	if m.Sectors == 0 {
		return 0
	}
	return float64(m.Flushes) / float64(m.Sectors)
}

// AvgLatency is the mean response time in ms.
func (m OpClassMetrics) AvgLatency() float64 {
	if m.Requests == 0 {
		return 0
	}
	return m.LatencySum / float64(m.Requests)
}

// BucketKey indexes the per-class metrics.
type BucketKey struct {
	Op    trace.Op
	Class trace.Class
}

// WearSummary is the per-block erase-count distribution after a run: the
// wear-levelling view of endurance (a uniform distribution wears out later
// than the same mean with a hot tail).
type WearSummary struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// The capabilities a replay reads its scheme-level figures through, found
// with ftl.As on the scheme or the scheme a host cache wraps.
type (
	acrossCensus   interface{ Stats() acrossftl.Stats }
	cmtCensus      interface{ CMTStats() cache.CMTStats }
	allocatorOwner interface{ Allocator() *ftl.Allocator }
	statsResetter  interface{ ResetStats() }
)

// Result is everything one replay produces.
type Result struct {
	Scheme   string
	Requests int64

	ReadCount, WriteCount           int64
	ReadLatencySum, WriteLatencySum float64 // ms

	// ReadLat / WriteLat hold the full latency distributions; P99 and the
	// other tail quantiles come from here.
	ReadLat  stats.Histogram
	WriteLat stats.Histogram

	Counters ftl.Counters // flash ops, erases, DRAM accesses (measured phase)

	ByBucket map[BucketKey]*OpClassMetrics

	TableBytes int64
	CMT        cache.CMTStats   // mapping-cache behaviour (MRSM and Across-FTL; zero otherwise)
	Across     *acrossftl.Stats // across-page census (Across-FTL only)

	Wear WearSummary // per-block erase distribution (lifetime, not per-phase)

	// ChipBusyMs is the accumulated service time per chip during the
	// measured phase; with the trace duration it gives per-chip utilisation
	// and shows how evenly dynamic allocation spreads load.
	ChipBusyMs []float64
	// TraceSpanMs is the arrival span of the replayed trace.
	TraceSpanMs float64
	// MeasuredSpanMs is the measured-phase makespan: first arrival to the
	// later of the last arrival and the device idle horizon. Service and GC
	// extend past the last arrival, so this — not TraceSpanMs — is the
	// utilisation denominator.
	MeasuredSpanMs float64

	WarmupWrites int64 // page programs spent aging (not in Counters)
}

// ChipUtilisation returns per-chip busy fractions over the measured
// makespan (nil when the span is zero). Dividing by the arrival span
// instead would report fractions above 1.0 whenever service runs past the
// last arrival — e.g. a burst trace whose requests all arrive up front;
// results recorded before MeasuredSpanMs existed fall back to it.
func (r *Result) ChipUtilisation() []float64 {
	span := r.MeasuredSpanMs
	if span <= 0 {
		span = r.TraceSpanMs
	}
	if span <= 0 {
		return nil
	}
	out := make([]float64, len(r.ChipBusyMs))
	for i, b := range r.ChipBusyMs {
		out[i] = b / span
	}
	return out
}

// UtilisationSpread returns the min and max chip utilisation (0,0 when
// unavailable) — a load-balance indicator for the dynamic page allocator.
func (r *Result) UtilisationSpread() (min, max float64) {
	u := r.ChipUtilisation()
	if len(u) == 0 {
		return 0, 0
	}
	min, max = u[0], u[0]
	for _, v := range u[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// AvgReadLatency returns the mean read response time (Fig 9a).
func (r *Result) AvgReadLatency() float64 {
	if r.ReadCount == 0 {
		return 0
	}
	return r.ReadLatencySum / float64(r.ReadCount)
}

// AvgWriteLatency returns the mean write response time (Fig 9b).
func (r *Result) AvgWriteLatency() float64 {
	if r.WriteCount == 0 {
		return 0
	}
	return r.WriteLatencySum / float64(r.WriteCount)
}

// TotalIOTime returns the summed response time of all requests in ms
// (Fig 9c / Fig 14a report it in kiloseconds).
func (r *Result) TotalIOTime() float64 { return r.ReadLatencySum + r.WriteLatencySum }

// Bucket returns (allocating if needed) the metrics bucket for a key.
func (r *Result) Bucket(op trace.Op, class trace.Class) *OpClassMetrics {
	k := BucketKey{Op: op, Class: class}
	m := r.ByBucket[k]
	if m == nil {
		m = &OpClassMetrics{}
		r.ByBucket[k] = m
	}
	return m
}

// MergedNormal returns the combined non-across buckets for a direction:
// the "Normal Req." series of Fig 4.
func (r *Result) MergedNormal(op trace.Op) OpClassMetrics {
	var out OpClassMetrics
	for _, class := range []trace.Class{trace.ClassAligned, trace.ClassUnaligned} {
		if m, ok := r.ByBucket[BucketKey{Op: op, Class: class}]; ok {
			out.Requests += m.Requests
			out.Sectors += m.Sectors
			out.LatencySum += m.LatencySum
			out.Flushes += m.Flushes
			out.FlashReads += m.FlashReads
		}
	}
	return out
}

// AcrossBucket returns the across-page bucket for a direction.
func (r *Result) AcrossBucket(op trace.Op) OpClassMetrics {
	if m, ok := r.ByBucket[BucketKey{Op: op, Class: trace.ClassAcross}]; ok {
		return *m
	}
	return OpClassMetrics{}
}
