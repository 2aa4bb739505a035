package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"across/internal/fleet"
	"across/internal/ftl"
	"across/internal/jobs"
	"across/internal/obs"
	"across/internal/runspec"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// SnapshotEntry is one stored aging checkpoint: the warm-state container
// (sim.Snapshot) for a (scheme, config, aging) tuple, keyed by AgingKey in
// the same content-addressed store as job results.
type SnapshotEntry struct {
	Key    string `json:"key"`
	Kind   string `json:"kind"` // "snapshot"
	Scheme string `json:"scheme"`
	Blob   []byte `json:"blob"`
}

// RequestDigest is what every stored replay digest opens with: request
// counts and response-time means and tails (logical ones for a fleet).
type RequestDigest struct {
	Requests int64 `json:"requests"`
	Reads    int64 `json:"reads"`
	Writes   int64 `json:"writes"`

	AvgReadMs  float64 `json:"avg_read_ms"`
	AvgWriteMs float64 `json:"avg_write_ms"`
	ReadP50Ms  float64 `json:"read_p50_ms"`
	ReadP99Ms  float64 `json:"read_p99_ms"`
	WriteP50Ms float64 `json:"write_p50_ms"`
	WriteP99Ms float64 `json:"write_p99_ms"`
}

func requestDigest(m *sim.Measured) RequestDigest {
	return RequestDigest{
		Requests:   m.Requests,
		Reads:      m.ReadCount,
		Writes:     m.WriteCount,
		AvgReadMs:  m.AvgReadLatency(),
		AvgWriteMs: m.AvgWriteLatency(),
		ReadP50Ms:  m.ReadLat.P50(),
		ReadP99Ms:  m.ReadLat.P99(),
		WriteP50Ms: m.WriteLat.P50(),
		WriteP99Ms: m.WriteLat.P99(),
	}
}

// SpanDigest is what every stored replay digest closes with: the arrival
// span, the measured makespan and the aging programs.
type SpanDigest struct {
	TraceSpanMs    float64 `json:"trace_span_ms"`
	MeasuredSpanMs float64 `json:"measured_span_ms"`
	WarmupWrites   int64   `json:"warmup_writes"`
}

func spanDigest(m *sim.Measured) SpanDigest {
	return SpanDigest{TraceSpanMs: m.TraceSpanMs, MeasuredSpanMs: m.MeasuredSpanMs, WarmupWrites: m.WarmupWrites}
}

// ReplayResult is the stored, JSON-serialisable digest of a sim.Result
// (the Result itself holds histograms that do not marshal).
type ReplayResult struct {
	Scheme string `json:"scheme"`
	RequestDigest
	TotalIOMs float64 `json:"total_io_ms"`

	Counters   ftl.Counters    `json:"counters"`
	Wear       sim.WearSummary `json:"wear"`
	TableBytes int64           `json:"table_bytes"`
	UtilMin    float64         `json:"utilisation_min"`
	UtilMax    float64         `json:"utilisation_max"`

	SpanDigest

	AcrossAreas     int64   `json:"across_areas,omitempty"`
	AcrossRollbacks float64 `json:"across_rollback_ratio,omitempty"`
}

func replayResultDoc(res *sim.Result) *ReplayResult {
	umin, umax := res.UtilisationSpread()
	doc := &ReplayResult{
		Scheme:        res.Scheme,
		RequestDigest: requestDigest(&res.Measured),
		TotalIOMs:     res.TotalIOTime(),
		Counters:      res.Counters,
		Wear:          res.Wear,
		TableBytes:    res.TableBytes,
		UtilMin:       umin,
		UtilMax:       umax,
		SpanDigest:    spanDigest(&res.Measured),
	}
	if res.Across != nil {
		doc.AcrossAreas = res.Across.AreasTouched()
		doc.AcrossRollbacks = res.Across.RollbackRatio()
	}
	return doc
}

// FleetReplayResult is the stored digest of a fleet.Result: volume shape,
// logical-request latencies and throughput, the layout's fan-out and
// re-fragmentation ratios, fleet-wide counters, the device utilisation
// spread, and the full per-device reports.
type FleetReplayResult struct {
	Scheme  string `json:"scheme"`
	Layout  string `json:"layout"`
	Devices int    `json:"devices"`
	ChunkKB int64  `json:"chunk_kb"`

	RequestDigest

	ThroughputRPS float64 `json:"throughput_rps"`
	Fanout        float64 `json:"fanout"`
	SubRequests   int64   `json:"sub_requests"`

	LogicalAcrossRatio float64 `json:"logical_across_ratio"`
	SubAcrossRatio     float64 `json:"sub_across_ratio"`
	SubUnalignedRatio  float64 `json:"sub_unaligned_ratio"`

	Counters ftl.Counters `json:"counters"`
	UtilMin  float64      `json:"utilisation_min"`
	UtilMax  float64      `json:"utilisation_max"`

	PerDevice []fleet.DeviceReport `json:"per_device"`

	SpanDigest
}

func fleetResultDoc(res *fleet.Result, chips int) *FleetReplayResult {
	umin, umax := res.UtilisationSpread(chips)
	return &FleetReplayResult{
		Scheme:             res.Scheme,
		Layout:             string(res.Layout),
		Devices:            res.Devices,
		ChunkKB:            res.ChunkSectors * ssdconf.SectorBytes / 1024,
		RequestDigest:      requestDigest(&res.Measured),
		ThroughputRPS:      res.Throughput(),
		Fanout:             res.Fanout(),
		SubRequests:        res.SubRequests(),
		LogicalAcrossRatio: res.LogicalClasses().Ratio(trace.ClassAcross),
		SubAcrossRatio:     res.SubClasses.Ratio(trace.ClassAcross),
		SubUnalignedRatio:  res.SubClasses.Ratio(trace.ClassUnaligned),
		Counters:           res.Counters(),
		UtilMin:            umin,
		UtilMax:            umax,
		PerDevice:          res.PerDevice,
		SpanDigest:         spanDigest(&res.Measured),
	}
}

// Entry is one stored job outcome: the spec that produced it and the result
// document. A single-device replay's sampled progress series is stored
// beside it, as the sibling <key>.samples.axss (see putSeries). Kind is
// "replay"; an older release's store may also hold "experiment" entries,
// which stay listable but no key this release computes reaches them.
type Entry struct {
	Key    string          `json:"key"`
	Kind   string          `json:"kind"`
	Spec   json.RawMessage `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// samplesExt names a replay entry's sibling: the sample series as
// obs.EncodeSeries writes it.
const samplesExt = ".samples.axss"

// putSeries stores a replay's sample series as its entry's sibling, in the
// sampler's own terms: formatting it is left to whoever asks for it
// (serveSeries). It runs before the entry's Put, whose rename commits both: a
// series without an entry is unreachable until a rerun overwrites it.
func (s *Server) putSeries(key string, samples []obs.Sample) error {
	blob, err := obs.EncodeSeries(samples)
	if err != nil {
		return err
	}
	return s.store.PutSibling(key, samplesExt, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

// runReplay executes one replay job: generate (or regenerate) the trace,
// fork the device — or every device of a fleet job's volume — from the job's
// checkpoint (warmStart's when it ages, a fresh one when not), replay with
// the job's context so cancellation and timeouts stop the simulator
// mid-trace, then persist the entry. Store failures are marked Transient so
// the scheduler's retry-with-backoff gets a chance to ride out disk hiccups.
//
// keySHA is the hash of the trace file the submission read and keyed ("" for
// none). A job that reads other bytes fails: its result would be stored,
// and later served, under the key of a file it never replayed.
//
// A single-device job streams progress and stores its sampled series, in
// the store phase and before the entry; a fleet replay has no sampler yet.
// Each phase is recorded in the job's span log.
func (s *Server) runReplay(ctx context.Context, key string, sp runspec.Spec, keySHA string, hub *progressHub, spl *spanLog) (*Entry, error) {
	spl.next("generate")
	conf := sp.Config()
	sectors, err := sp.LogicalSectors(conf)
	if err != nil {
		return nil, err
	}
	reqs, traceSHA, err := sp.Requests(sectors)
	if err != nil {
		return nil, err
	}
	if traceSHA != keySHA {
		return nil, fmt.Errorf("trace file %s changed since submission: its bytes hash to %.12s, the job's key to %.12s",
			sp.Scenario.TracePath, traceSHA, keySHA)
	}
	var cp *sim.Checkpoint
	var agingAttrs []string
	if sp.Age {
		akey, err := sp.AgingKey()
		if err != nil {
			return nil, err
		}
		agingAttrs = []string{"aging_key", akey}
		if cp, err = s.warmStart(ctx, akey, &sp, conf, spl); err != nil {
			return nil, err
		}
	} else if cp, err = sim.FreshCheckpoint(sim.SchemeKind(sp.Scheme), conf); err != nil {
		return nil, err
	}
	var doc any
	var smp *obs.Sampler
	if sp.Fleet != nil {
		v, err := fleet.FromCheckpoint(cp, sp.Volume())
		if err != nil {
			return nil, err
		}
		spl.next("replay", agingAttrs...)
		res, err := v.Replay(ctx, reqs, sp.QD)
		if err != nil {
			return nil, err
		}
		spl.next("store",
			"devices", fmt.Sprint(v.Devices()),
			"layout", string(v.Layout()),
			"chunk_sectors", fmt.Sprint(v.ChunkSectors()))
		doc = fleetResultDoc(res, conf.Chips())
	} else {
		r, err := cp.Fork()
		if err != nil {
			return nil, err
		}
		if smp, err = obs.NewSampler(s.cfg.SampleIntervalMs); err != nil {
			return nil, err
		}
		smp.SetSink(hub)
		r.SetSampler(smp)
		spl.next("replay", agingAttrs...)
		res, err := r.ReplayQDCtx(ctx, reqs, sp.QD)
		if err != nil {
			return nil, err
		}
		spl.next("store")
		doc = replayResultDoc(res)
	}
	entry, err := buildEntry(key, sp, doc)
	if err != nil {
		return nil, err
	}
	if smp != nil {
		if err := s.putSeries(key, smp.Samples()); err != nil {
			return nil, jobs.Transient(err)
		}
	}
	if err := s.store.Put(key, entry); err != nil {
		return nil, jobs.Transient(err)
	}
	if smp != nil {
		hub.Release()
	}
	spl.next("")
	return entry, nil
}

func buildEntry(key string, sp runspec.Spec, result any) (*Entry, error) {
	sb, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("service: encoding spec: %w", err)
	}
	rb, err := json.Marshal(result)
	if err != nil {
		return nil, fmt.Errorf("service: encoding result: %w", err)
	}
	return &Entry{Key: key, Kind: "replay", Spec: sb, Result: rb}, nil
}
