package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Sample is one periodic snapshot of the simulator's time-series metrics.
// Interval fields describe the window since the previous sample; Cum*
// fields are cumulative since the start of the measured phase, so the last
// sample of a replay reproduces the end-of-run Result aggregates.
type Sample struct {
	TimeMs float64 `json:"t_ms"`

	// Interval window (since the previous sample).
	Requests     int64     `json:"requests"`       // requests completed in the window
	ReadMeanMs   float64   `json:"read_mean_ms"`   // mean read latency in the window
	WriteMeanMs  float64   `json:"write_mean_ms"`  // mean write latency in the window
	QueueDepth   int       `json:"queue_depth"`    // in-flight requests at sample time
	ChipBusyFrac []float64 `json:"chip_busy_frac"` // per-chip busy fraction over the window

	// Gauges at sample time.
	GCDebtPages int64   `json:"gc_debt_pages"` // pages below the per-plane GC thresholds
	WAF         float64 `json:"waf"`           // cumulative write amplification
	CMTHitRate  float64 `json:"cmt_hit_rate"`  // cumulative mapping-cache hit ratio

	// Cumulative aggregates (measured phase).
	ChipBusyMs          []float64 `json:"chip_busy_ms"`
	CumRequests         int64     `json:"cum_requests"`
	CumReads            int64     `json:"cum_reads"`
	CumWrites           int64     `json:"cum_writes"`
	CumReadLatSumMs     float64   `json:"cum_read_lat_sum_ms"`
	CumWriteLatSumMs    float64   `json:"cum_write_lat_sum_ms"`
	CumFlashReads       int64     `json:"cum_flash_reads"`
	CumFlashWrites      int64     `json:"cum_flash_writes"`
	CumErases           int64     `json:"cum_erases"`
	CumGCInvocations    int64     `json:"cum_gc_invocations"`
	CumHostPagesWritten int64     `json:"cum_host_pages_written"`

	// Custom is named extra series. It is a member of the stored series
	// format (EncodeSeries keeps it); nothing in the tree sets it.
	Custom map[string]float64 `json:"custom,omitempty"`
}

// MetricsSink is handed the sampler's own series after each sample. The
// series is read-only to it, and it may keep the slice and read it from
// another goroutine: an emitted sample never changes (its busy columns are
// never reused), and later samples land past the length it was handed.
type MetricsSink interface {
	Publish(series []Sample)
}

// Sampler snapshots time-series metrics on a simulated-clock interval. The
// replay engine drives it: Note records each completed request, Tick is
// called with the advancing simulated clock and emits a sample whenever a
// boundary is crossed, and Finish emits the closing sample whose cumulative
// fields equal the end-of-run aggregates. The fill callback populates the
// gauge and cumulative fields from live simulator state as of the sample's
// TimeMs, which is set before fill runs; the Sampler owns the interval
// bookkeeping (window request counts, latency means, busy-fraction deltas).
type Sampler struct {
	interval float64
	sink     MetricsSink

	samples  []Sample
	started  bool
	next     float64
	prevT    float64
	prevBusy []float64

	intReads, intWrites     int64
	intReadLat, intWriteLat float64
}

// NewSampler builds a sampler with the given simulated-ms interval.
func NewSampler(intervalMs float64) (*Sampler, error) {
	if intervalMs <= 0 {
		return nil, fmt.Errorf("obs: sample interval %v ms must be positive", intervalMs)
	}
	return &Sampler{interval: intervalMs}, nil
}

// SetSink publishes the series to ms after every sample.
func (s *Sampler) SetSink(ms MetricsSink) { s.sink = ms }

// Samples returns the snapshots taken so far.
func (s *Sampler) Samples() []Sample { return s.samples }

// Note records one completed request (direction and response time) into the
// current window.
func (s *Sampler) Note(write bool, latMs float64) {
	if write {
		s.intWrites++
		s.intWriteLat += latMs
	} else {
		s.intReads++
		s.intReadLat += latMs
	}
}

// Tick advances the simulated clock. The first call anchors the sampling
// grid; later calls emit one sample per crossed boundary (coalesced: a long
// quiet gap yields a single sample stamped at the event that ended it).
// The engine calls it per request and most calls cross nothing, so that
// case is the inlined test here.
func (s *Sampler) Tick(now float64, fill func(*Sample)) {
	if s.started && now < s.next {
		return
	}
	s.tick(now, fill)
}

func (s *Sampler) tick(now float64, fill func(*Sample)) {
	if !s.started {
		s.started = true
		s.prevT = now
		s.next = now + s.interval
		return
	}
	if now < s.next {
		return
	}
	s.emit(now, fill)
	for s.next <= now {
		s.next += s.interval
	}
}

// Finish emits the closing sample at the given time (typically the device
// idle horizon), so the series always ends with the run's final aggregates.
func (s *Sampler) Finish(now float64, fill func(*Sample)) {
	if now <= s.prevT && len(s.samples) > 0 {
		return
	}
	s.emit(now, fill)
}

// emit takes a sample in place at the end of the series: a Sample built
// aside would escape to the heap through fill, one allocation per sample.
func (s *Sampler) emit(now float64, fill func(*Sample)) {
	s.samples = append(s.samples, Sample{TimeMs: now})
	sm := &s.samples[len(s.samples)-1]
	fill(sm)
	sm.Requests = s.intReads + s.intWrites
	if s.intReads > 0 {
		sm.ReadMeanMs = s.intReadLat / float64(s.intReads)
	}
	if s.intWrites > 0 {
		sm.WriteMeanMs = s.intWriteLat / float64(s.intWrites)
	}
	// A fill that carved ChipBusyFrac from the allocation holding ChipBusyMs
	// (sim's does) saves this one; it is zero either way.
	if sm.ChipBusyFrac == nil || len(sm.ChipBusyFrac) != len(sm.ChipBusyMs) {
		sm.ChipBusyFrac = make([]float64, len(sm.ChipBusyMs))
	}
	if dt := now - s.prevT; dt > 0 {
		for i, b := range sm.ChipBusyMs {
			var prev float64
			if i < len(s.prevBusy) {
				prev = s.prevBusy[i]
			}
			f := (b - prev) / dt
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			sm.ChipBusyFrac[i] = f
		}
	}
	s.prevBusy = append(s.prevBusy[:0], sm.ChipBusyMs...)
	s.prevT = now
	s.intReads, s.intWrites = 0, 0
	s.intReadLat, s.intWriteLat = 0, 0
	if s.sink != nil {
		s.sink.Publish(s.samples)
	}
}

// WriteNDJSON is the one formatter of a sample series: one json.Encoder
// line per sample.
func WriteNDJSON(w io.Writer, samples []Sample) error {
	enc := json.NewEncoder(w)
	for i := range samples {
		if err := enc.Encode(&samples[i]); err != nil {
			return err
		}
	}
	return nil
}
