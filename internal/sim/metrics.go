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

// WearSummary is the per-block erase-count distribution after a run: the
// wear-levelling view of endurance (a uniform distribution wears out later
// than the same mean with a hot tail).
type WearSummary struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// The capabilities a replay reads its scheme-level figures through, asserted
// on the scheme.
type (
	acrossCensus   interface{ Stats() acrossftl.Stats }
	cmtCensus      interface{ CMTStats() cache.CMTStats }
	allocatorOwner interface{ Allocator() *ftl.Allocator }
	statsResetter  interface{ ResetStats() }
	// prefetcher hints the memory serving a request will load (DESIGN §7).
	// Both methods only read: a hint changes how long the scheme's loads
	// wait, never what they find, so nothing simulated depends on it.
	prefetcher interface {
		PrefetchMap(r trace.Request)  // the mapping entries r starts from
		PrefetchData(r trace.Request) // what those entries point at
	}
)

// Measured is the measured core of every host replay, one device or a
// volume of them: the per-request response times the host loop (Drive)
// folds per direction and per (direction, alignment class), and the span
// the replay ran over. sim.Result and fleet.Result both embed it.
type Measured struct {
	Requests   int64 `json:"requests"`
	ReadCount  int64 `json:"reads"`
	WriteCount int64 `json:"writes"`

	ReadLatencySum  float64 `json:"read_latency_sum_ms"`
	WriteLatencySum float64 `json:"write_latency_sum_ms"`

	// ReadLat / WriteLat hold the full latency distributions; P99 and the
	// other tail quantiles come from here.
	ReadLat  stats.Histogram `json:"-"`
	WriteLat stats.Histogram `json:"-"`

	// ByBucket aggregates requests per [direction][alignment class], with
	// the flash data traffic (host and GC) each request caused.
	ByBucket [2][3]OpClassMetrics `json:"by_bucket"`

	// TraceSpanMs is the arrival span of the replayed trace.
	TraceSpanMs float64 `json:"trace_span_ms"`
	// MeasuredSpanMs is the measured-phase makespan: first arrival to the
	// later of the last arrival and the idle horizon of every device
	// replayed. Service and GC extend past the last arrival, so this — not
	// TraceSpanMs — is the utilisation and throughput denominator.
	MeasuredSpanMs float64 `json:"measured_span_ms"`

	WarmupWrites int64 `json:"warmup_writes"` // page programs spent aging (not in the counters)
}

// AvgReadLatency returns the mean read response time (Fig 9a).
func (m *Measured) AvgReadLatency() float64 {
	if m.ReadCount == 0 {
		return 0
	}
	return m.ReadLatencySum / float64(m.ReadCount)
}

// AvgWriteLatency returns the mean write response time (Fig 9b).
func (m *Measured) AvgWriteLatency() float64 {
	if m.WriteCount == 0 {
		return 0
	}
	return m.WriteLatencySum / float64(m.WriteCount)
}

// TotalIOTime returns the summed response time of all requests in ms
// (Fig 9c / Fig 14a report it in kiloseconds).
func (m *Measured) TotalIOTime() float64 { return m.ReadLatencySum + m.WriteLatencySum }

// Throughput returns requests per simulated second over the measured
// makespan (0 when the span is zero) — the y axis of the saturation sweep.
func (m *Measured) Throughput() float64 {
	if m.MeasuredSpanMs <= 0 {
		return 0
	}
	return float64(m.Requests) / (m.MeasuredSpanMs / 1000)
}

// Bucket returns the metrics bucket for a direction and alignment class.
func (m *Measured) Bucket(op trace.Op, class trace.Class) *OpClassMetrics {
	return &m.ByBucket[op][class]
}

// MergedNormal returns the combined non-across buckets for a direction:
// the "Normal Req." series of Fig 4.
func (m *Measured) MergedNormal(op trace.Op) OpClassMetrics {
	var out OpClassMetrics
	for _, class := range []trace.Class{trace.ClassAligned, trace.ClassUnaligned} {
		b := &m.ByBucket[op][class]
		out.Requests += b.Requests
		out.Sectors += b.Sectors
		out.LatencySum += b.LatencySum
		out.Flushes += b.Flushes
		out.FlashReads += b.FlashReads
	}
	return out
}

// AcrossBucket returns the across-page bucket for a direction.
func (m *Measured) AcrossBucket(op trace.Op) OpClassMetrics {
	return m.ByBucket[op][trace.ClassAcross]
}

// Result is everything one single-device replay produces: the measured
// core and the device and scheme state at the end of the run.
type Result struct {
	Scheme string
	Measured

	Counters ftl.Counters // flash ops, erases, DRAM accesses (measured phase)

	TableBytes int64
	CMT        cache.CMTStats   // mapping-cache behaviour (MRSM and Across-FTL; zero otherwise)
	Across     *acrossftl.Stats // across-page census (Across-FTL only)

	Wear WearSummary // per-block erase distribution (lifetime, not per-phase)

	// ChipBusyMs is the accumulated service time per chip during the
	// measured phase; with the measured span it gives per-chip utilisation
	// and shows how evenly dynamic allocation spreads load.
	ChipBusyMs []float64
}

// ChipUtilisation returns per-chip busy fractions over the measured
// makespan (nil when the span is zero). Dividing by the arrival span
// instead would report fractions above 1.0 whenever service runs past the
// last arrival — e.g. a burst trace whose requests all arrive up front.
func (r *Result) ChipUtilisation() []float64 {
	span := r.MeasuredSpanMs
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
