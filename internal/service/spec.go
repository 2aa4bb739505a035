package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"across/internal/experiments"
	"across/internal/fleet"
	"across/internal/ftl"
	"across/internal/jobs"
	"across/internal/obs"
	"across/internal/scenario"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/store"
	"across/internal/trace"
	"across/internal/workload"
)

// keyVersion is baked into every job key: bump it when the simulator's
// semantics change enough that cached results should stop being served.
const keyVersion = 1

// scenarioKeyVersion versions the scenario branch of Key on its own, so the
// scenario layer can evolve without orphaning every non-scenario cache
// entry. v2 added TraceReqs: Cohort.Trace is excluded from the scenario's
// JSON and TraceSHA hashes the original file bytes, so without the resolved
// per-cohort counts, trace specs differing only in Scale collided on one
// key and served each other's truncated results.
const scenarioKeyVersion = 2

// ReplaySpec is the submit-body of a replay job: one trace replayed against
// one scheme on one device. Priority and TimeoutMs steer scheduling only
// and are excluded from the content key.
type ReplaySpec struct {
	Type    string  `json:"type"` // "replay"
	Scheme  string  `json:"scheme"`
	Profile string  `json:"profile"`              // lun1..lun6
	Scale   float64 `json:"scale,omitempty"`      // fraction of the profile's requests (default 0.05)
	Seed    int64   `json:"seed,omitempty"`       // workload seed offset
	Page    int     `json:"page_bytes,omitempty"` // flash page size (default 8192)
	QD      int     `json:"qd,omitempty"`         // queue-depth bound (0 = open loop)
	Age     bool    `json:"age,omitempty"`        // §4.1 warm-up before measuring
	Full    bool    `json:"full,omitempty"`       // full Table 1 geometry (default: scaled)

	// Fleet composes N devices into one logical volume and replays the
	// trace through its layout instead of against a single device. Fleet
	// jobs reuse the single-device AgingKey checkpoints: one device ages
	// (or a stored checkpoint is found) and every device forks from it.
	Fleet *FleetSpec `json:"fleet,omitempty"`

	// Scenario replaces the Profile workload with a scenario-engine stream
	// (temporal patterns, multi-tenant cohorts, or a real trace file).
	// Scale and Seed apply to the scenario's cohorts; Profile must be left
	// empty. The resolved scenario joins the content key under its own Kind
	// string, while AgingKey is unchanged — scenario jobs fork from the
	// same aging checkpoints as every other job of the scheme/config.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`

	Priority  int   `json:"priority,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// FleetSpec is the fleet block of a replay submit-body: device count,
// layout name (concat | raid0 | raid10, default raid0) and stripe chunk in
// KB (0 = the 64 KiB default; ignored by concat). All three are simulated-
// outcome knobs and join the content key.
type FleetSpec struct {
	Devices int    `json:"devices"`
	Layout  string `json:"layout,omitempty"`
	ChunkKB int    `json:"chunk_kb,omitempty"`
}

// ScenarioSpec is the scenario block of a replay submit-body: a builtin
// scenario name (stationary | burst | daynight | mixed), or a real-trace
// file on the daemon host wrapped as a single-cohort scenario. With
// TracePath set, Name defaults to "trace" and the file's content joins the
// content key by SHA-256 — two daemons caching the same bytes dedupe, a
// changed file re-runs. Note the spec's Scale (default 0.05) truncates a
// trace cohort to its first fraction of requests; submit "scale": 1 to
// replay the whole file.
type ScenarioSpec struct {
	Name      string `json:"name,omitempty"`
	TracePath string `json:"trace_path,omitempty"`
}

// maxTraceFileBytes bounds the file a scenario's trace_path may name: it is
// read whole, by the submit handler and again by the job.
const maxTraceFileBytes = 256 << 20

// openTraceFile opens a trace_path; a test counts the opens through it.
var openTraceFile = os.Open

// readTraceFile reads a trace_path whole, refusing one over the bound
// before any of it is read or parsed.
func readTraceFile(path string) ([]byte, error) {
	f, err := openTraceFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return nil, err
	} else if fi.Size() > maxTraceFileBytes {
		return nil, fmt.Errorf("trace file %s is %d bytes, over the %d-byte bound", path, fi.Size(), maxTraceFileBytes)
	}
	// The bound again, for a file that grows or has no size to report.
	data, err := io.ReadAll(io.LimitReader(f, maxTraceFileBytes+1))
	if err == nil && len(data) > maxTraceFileBytes {
		err = fmt.Errorf("trace file %s is over the %d-byte bound", path, maxTraceFileBytes)
	}
	return data, err
}

// baseScenario resolves the scenario block into a scenario plus the
// SHA-256 of the trace file's bytes ("" for builtins).
func (sp *ReplaySpec) baseScenario() (scenario.Scenario, string, error) {
	if sp.Scenario.TracePath != "" {
		data, err := readTraceFile(sp.Scenario.TracePath)
		if err != nil {
			return scenario.Scenario{}, "", err
		}
		reqs, err := trace.ReadAllAuto(bytes.NewReader(data))
		if err != nil {
			return scenario.Scenario{}, "", err
		}
		sum := sha256.Sum256(data)
		return scenario.FromTrace(sp.Scenario.Name, reqs), hex.EncodeToString(sum[:]), nil
	}
	sc, err := scenario.Builtin(sp.Scenario.Name)
	return sc, "", err
}

// resolvedScenario applies the spec's Scale and Seed knobs — the exact
// generator input, which is what the content key must capture.
func (sp *ReplaySpec) resolvedScenario() (scenario.Scenario, string, error) {
	sc, traceSHA, err := sp.baseScenario()
	if err != nil {
		return scenario.Scenario{}, "", err
	}
	return sc.Scale(sp.Scale).WithSeedOffset(sp.Seed), traceSHA, nil
}

// scenarioOnce resolves a spec's scenario block at most once — for a
// trace_path a file read, a parse and a SHA-256 — however many of validate
// and Key ask: a submission shares one between the two.
type scenarioOnce struct {
	done     bool
	sc       scenario.Scenario
	traceSHA string
	err      error
}

func (o *scenarioOnce) get(sp *ReplaySpec) (scenario.Scenario, string, error) {
	if !o.done {
		o.sc, o.traceSHA, o.err = sp.resolvedScenario()
		o.done = true
	}
	return o.sc, o.traceSHA, o.err
}

// requests produces the job's request stream: the scenario engine when a
// scenario block is present, the profile generator otherwise.
func (sp *ReplaySpec) requests(logicalSectors int64) ([]trace.Request, error) {
	if sp.Scenario != nil {
		sc, _, err := sp.resolvedScenario()
		if err != nil {
			return nil, err
		}
		st, err := sc.Generate(logicalSectors)
		if err != nil {
			return nil, err
		}
		return st.Requests, nil
	}
	prof, err := sp.profile()
	if err != nil {
		return nil, err
	}
	return workload.Generate(prof, logicalSectors)
}

// fleetSpec resolves the JSON block into the fleet package's spec.
func (sp *ReplaySpec) fleetSpec() fleet.Spec {
	return fleet.Spec{
		Devices:      sp.Fleet.Devices,
		Layout:       fleet.Layout(sp.Fleet.Layout),
		ChunkSectors: int64(sp.Fleet.ChunkKB) * 1024 / ssdconf.SectorBytes,
	}
}

func (sp *ReplaySpec) normalise() {
	if sp.Scale == 0 {
		sp.Scale = 0.05
	}
	if sp.Page == 0 {
		sp.Page = 8192
	}
	if sp.Scheme == "" {
		sp.Scheme = string(sim.KindAcross)
	}
	if sp.Scenario != nil && sp.Scenario.Name == "" && sp.Scenario.TracePath != "" {
		sp.Scenario.Name = "trace"
	}
	if sp.Fleet != nil {
		if sp.Fleet.Layout == "" {
			sp.Fleet.Layout = string(fleet.LayoutRAID0)
		}
		// Canonicalise the chunk so equivalent specs share one content key:
		// concat ignores it entirely, and zero means the fleet default.
		if sp.Fleet.Layout == string(fleet.LayoutConcat) {
			sp.Fleet.ChunkKB = 0
		} else if sp.Fleet.ChunkKB == 0 {
			sp.Fleet.ChunkKB = fleet.DefaultChunkKB
		}
	}
}

func (sp *ReplaySpec) validate() error { return sp.validateOnce(&scenarioOnce{}) }

func (sp *ReplaySpec) validateOnce(once *scenarioOnce) error {
	if _, err := sim.ParseKind(sp.Scheme); err != nil {
		return err
	}
	if sp.Scenario != nil {
		if sp.Profile != "" {
			return fmt.Errorf("profile %q and scenario are mutually exclusive", sp.Profile)
		}
		if sp.Scenario.Name == "" {
			return fmt.Errorf("scenario needs a name or a trace_path")
		}
	} else if _, err := workload.LunProfile(sp.Profile); err != nil {
		return err
	}
	if sp.Scale <= 0 || sp.Scale > 1 {
		return fmt.Errorf("scale %v out of (0,1]", sp.Scale)
	}
	conf := sp.config()
	if err := conf.Validate(); err != nil {
		return err
	}
	if sp.Scenario != nil {
		// Resolve now so unknown builtins, unreadable trace files and bad
		// partitions fail at submit time, not inside a scheduled job. A
		// single-device check is conservative for fleet jobs: the volume's
		// logical space is never smaller than one device's.
		sc, _, err := once.get(sp)
		if err != nil {
			return err
		}
		if err := sc.Validate(conf.LogicalSectors()); err != nil {
			return err
		}
	}
	if sp.Fleet != nil {
		if _, err := fleet.ParseLayout(sp.Fleet.Layout); err != nil {
			return err
		}
		if err := sp.fleetSpec().Validate(conf); err != nil {
			return err
		}
	}
	return nil
}

func (sp *ReplaySpec) config() ssdconf.Config {
	conf := ssdconf.Experiment()
	if sp.Full {
		conf = ssdconf.Table1()
	}
	return conf.WithPageBytes(sp.Page)
}

// profile resolves the fully-scaled, seed-offset workload profile — the
// exact generator input, which is what the content key must capture.
func (sp *ReplaySpec) profile() (workload.Profile, error) {
	p, err := workload.LunProfile(sp.Profile)
	if err != nil {
		return workload.Profile{}, err
	}
	p = p.Scale(sp.Scale)
	p.Seed += sp.Seed
	return p, nil
}

// Key is the canonical content address of the work: a hash over the scheme,
// the full device configuration, the fully-resolved workload profile
// (request count, ratios, seed), the queue depth and the aging switch.
// Everything that changes the simulated outcome is in here; anything that
// only changes scheduling (priority, timeout) is not. Fleet jobs hash an
// extended structure under a distinct Kind string; the non-fleet structure
// is untouched so results cached before the fleet layer existed keep their
// addresses. Scenario jobs hash the fully-resolved scenario (cohorts,
// partitions, patterns, seeds — trace cohorts represented by the SHA-256 of
// the trace file's bytes plus their resolved post-Scale request counts)
// under scenario-specific Kinds, so equivalent spellings dedupe and a
// changed trace file or a different scale re-runs.
func (sp *ReplaySpec) Key() (string, error) { return sp.keyOnce(&scenarioOnce{}) }

func (sp *ReplaySpec) keyOnce(once *scenarioOnce) (string, error) {
	if sp.Scenario != nil {
		sc, traceSHA, err := once.get(sp)
		if err != nil {
			return "", err
		}
		// Trace cohorts serialise without their requests (TraceSHA stands in
		// for the bytes), but Scale truncates them at generation time — the
		// resolved counts are the only scale-dependent input left to hash.
		var traceReqs []int
		for i := range sc.Cohorts {
			if n := len(sc.Cohorts[i].Trace); n > 0 {
				traceReqs = append(traceReqs, n)
			}
		}
		kind := "scenario-replay/" + sp.Scheme
		var fspec *fleet.Spec
		if sp.Fleet != nil {
			kind = "scenario-fleet-replay/" + sp.Scheme
			f := sp.fleetSpec()
			fspec = &f
		}
		return store.HashJSON(struct {
			V         int
			SV        int
			Kind      string
			Conf      ssdconf.Config
			Scenario  scenario.Scenario
			TraceSHA  string `json:",omitempty"`
			TraceReqs []int  `json:",omitempty"`
			QD        int
			Age       bool
			Fleet     *fleet.Spec `json:",omitempty"`
		}{keyVersion, scenarioKeyVersion, kind, sp.config(), sc, traceSHA, traceReqs, sp.QD, sp.Age, fspec})
	}
	prof, err := sp.profile()
	if err != nil {
		return "", err
	}
	if sp.Fleet != nil {
		fspec := sp.fleetSpec()
		return store.HashJSON(struct {
			V       int
			Kind    string
			Conf    ssdconf.Config
			Profile workload.Profile
			QD      int
			Age     bool
			Fleet   fleet.Spec
		}{keyVersion, "fleet-replay/" + sp.Scheme, sp.config(), prof, sp.QD, sp.Age, fspec})
	}
	return store.HashJSON(struct {
		V       int
		Kind    string
		Conf    ssdconf.Config
		Profile workload.Profile
		QD      int
		Age     bool
	}{keyVersion, "replay/" + sp.Scheme, sp.config(), prof, sp.QD, sp.Age})
}

// AgingKey is the content address of the warm state this spec's aging
// phase produces: a hash over the scheme, the full device configuration and
// the aging recipe — and nothing else. Aging (sim.DefaultAging) is
// workload-independent, so profile/scale/seed do not belong here; neither
// do measurement knobs (qd) nor scheduling knobs (priority, timeout), which
// must never fragment checkpoint reuse. Every job whose
// AgingKey matches forks from one cached checkpoint instead of re-aging.
func (sp *ReplaySpec) AgingKey() (string, error) {
	return store.HashJSON(struct {
		V     int
		Kind  string
		Conf  ssdconf.Config
		Aging sim.Aging
	}{keyVersion, "aging/" + sp.Scheme, sp.config(), sim.DefaultAging()})
}

// SnapshotEntry is one stored aging checkpoint: the warm-state container
// (sim.Snapshot) for a (scheme, config, aging) tuple, keyed by AgingKey in
// the same content-addressed store as job results.
type SnapshotEntry struct {
	Key    string `json:"key"`
	Kind   string `json:"kind"` // "snapshot"
	Scheme string `json:"scheme"`
	Blob   []byte `json:"blob"`
}

// ExperimentSpec is the submit-body of an experiment job: one paper
// artifact (table/figure id) regenerated through an experiments.Session.
type ExperimentSpec struct {
	Type   string  `json:"type"` // "experiment"
	ID     string  `json:"id"`   // table1, fig9, ext-tail, ...
	Scale  float64 `json:"scale,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	NoAge  bool    `json:"no_age,omitempty"`
	Format string  `json:"format,omitempty"` // text | markdown | csv

	Priority  int   `json:"priority,omitempty"`
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

func (sp *ExperimentSpec) sessionConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	if sp.Scale > 0 {
		cfg.Scale = sp.Scale
	}
	cfg.SeedOffset = sp.Seed
	cfg.Age = !sp.NoAge
	if sp.Format != "" {
		cfg.Format = sp.Format
	}
	return cfg
}

func (sp *ExperimentSpec) validate() error {
	if _, err := experiments.ByID(sp.ID); err != nil {
		return err
	}
	cfg := sp.sessionConfig()
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return fmt.Errorf("scale %v out of (0,1]", cfg.Scale)
	}
	return nil
}

// Key hashes the artifact id plus every session knob that changes its
// content.
func (sp *ExperimentSpec) Key() (string, error) {
	cfg := sp.sessionConfig()
	return store.HashJSON(struct {
		V      int
		Kind   string
		Conf   ssdconf.Config
		Scale  float64
		Seed   int64
		Age    bool
		Format string
	}{keyVersion, "experiment/" + sp.ID, cfg.SSD, cfg.Scale, cfg.SeedOffset, cfg.Age, cfg.Format})
}

// ReplayResult is the stored, JSON-serialisable digest of a sim.Result
// (the Result itself holds struct-keyed maps and histograms that do not
// marshal).
type ReplayResult struct {
	Scheme   string `json:"scheme"`
	Requests int64  `json:"requests"`
	Reads    int64  `json:"reads"`
	Writes   int64  `json:"writes"`

	AvgReadMs  float64 `json:"avg_read_ms"`
	AvgWriteMs float64 `json:"avg_write_ms"`
	ReadP50Ms  float64 `json:"read_p50_ms"`
	ReadP99Ms  float64 `json:"read_p99_ms"`
	WriteP50Ms float64 `json:"write_p50_ms"`
	WriteP99Ms float64 `json:"write_p99_ms"`
	TotalIOMs  float64 `json:"total_io_ms"`

	Counters   ftl.Counters    `json:"counters"`
	Wear       sim.WearSummary `json:"wear"`
	TableBytes int64           `json:"table_bytes"`
	UtilMin    float64         `json:"utilisation_min"`
	UtilMax    float64         `json:"utilisation_max"`

	TraceSpanMs    float64 `json:"trace_span_ms"`
	MeasuredSpanMs float64 `json:"measured_span_ms"`
	WarmupWrites   int64   `json:"warmup_writes"`

	AcrossAreas     int64   `json:"across_areas,omitempty"`
	AcrossRollbacks float64 `json:"across_rollback_ratio,omitempty"`
}

func replayResultDoc(res *sim.Result) *ReplayResult {
	umin, umax := res.UtilisationSpread()
	doc := &ReplayResult{
		Scheme:         res.Scheme,
		Requests:       res.Requests,
		Reads:          res.ReadCount,
		Writes:         res.WriteCount,
		AvgReadMs:      res.AvgReadLatency(),
		AvgWriteMs:     res.AvgWriteLatency(),
		ReadP50Ms:      res.ReadLat.P50(),
		ReadP99Ms:      res.ReadLat.P99(),
		WriteP50Ms:     res.WriteLat.P50(),
		WriteP99Ms:     res.WriteLat.P99(),
		TotalIOMs:      res.TotalIOTime(),
		Counters:       res.Counters,
		Wear:           res.Wear,
		TableBytes:     res.TableBytes,
		UtilMin:        umin,
		UtilMax:        umax,
		TraceSpanMs:    res.TraceSpanMs,
		MeasuredSpanMs: res.MeasuredSpanMs,
		WarmupWrites:   res.WarmupWrites,
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

	Requests int64 `json:"requests"`
	Reads    int64 `json:"reads"`
	Writes   int64 `json:"writes"`

	AvgReadMs  float64 `json:"avg_read_ms"`
	AvgWriteMs float64 `json:"avg_write_ms"`
	ReadP50Ms  float64 `json:"read_p50_ms"`
	ReadP99Ms  float64 `json:"read_p99_ms"`
	WriteP50Ms float64 `json:"write_p50_ms"`
	WriteP99Ms float64 `json:"write_p99_ms"`

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

	TraceSpanMs    float64 `json:"trace_span_ms"`
	MeasuredSpanMs float64 `json:"measured_span_ms"`
	WarmupWrites   int64   `json:"warmup_writes"`
}

func fleetResultDoc(res *fleet.Result, chips int) *FleetReplayResult {
	umin, umax := res.UtilisationSpread(chips)
	return &FleetReplayResult{
		Scheme:             res.Scheme,
		Layout:             string(res.Layout),
		Devices:            res.Devices,
		ChunkKB:            res.ChunkSectors * ssdconf.SectorBytes / 1024,
		Requests:           res.Requests,
		Reads:              res.ReadCount,
		Writes:             res.WriteCount,
		AvgReadMs:          res.AvgReadLatency(),
		AvgWriteMs:         res.AvgWriteLatency(),
		ReadP50Ms:          res.ReadLat.P50(),
		ReadP99Ms:          res.ReadLat.P99(),
		WriteP50Ms:         res.WriteLat.P50(),
		WriteP99Ms:         res.WriteLat.P99(),
		ThroughputRPS:      res.Throughput(),
		Fanout:             res.Fanout(),
		SubRequests:        res.SubRequests,
		LogicalAcrossRatio: res.LogicalClasses.Ratio(trace.ClassAcross),
		SubAcrossRatio:     res.SubClasses.Ratio(trace.ClassAcross),
		SubUnalignedRatio:  res.SubClasses.Ratio(trace.ClassUnaligned),
		Counters:           res.Counters(),
		UtilMin:            umin,
		UtilMax:            umax,
		PerDevice:          res.PerDevice,
		TraceSpanMs:        res.TraceSpanMs,
		MeasuredSpanMs:     res.MeasuredSpanMs,
		WarmupWrites:       res.WarmupWrites,
	}
}

// ExperimentResult is the stored outcome of an experiment job: the rendered
// artifact.
type ExperimentResult struct {
	ID     string `json:"id"`
	Output string `json:"output"`
}

// Entry is one stored job outcome: the spec that produced it and the result
// document. A single-device replay's sampled progress series is stored
// beside it, as the sibling <key>.samples.axss (see putSeries).
type Entry struct {
	Key    string          `json:"key"`
	Kind   string          `json:"kind"` // "replay" | "experiment"
	Spec   json.RawMessage `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// samplesExt names a replay entry's sibling: the sample series as
// obs.EncodeSeries writes it. legacySamplesExt is the sibling daemons before
// that wrote: the same series already formatted as NDJSON.
const (
	samplesExt       = ".samples.axss"
	legacySamplesExt = ".samples.ndjson"
)

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
// build and optionally age the device, replay with the job's context so
// cancellation and timeouts stop the simulator mid-trace, then persist the
// entry. Store failures are marked Transient so the scheduler's
// retry-with-backoff gets a chance to ride out disk hiccups.
//
// Every replay job streams progress and stores its sampled series, in the
// store phase and before the entry. Each phase is recorded in the job's span
// log.
func (s *Server) runReplay(ctx context.Context, key string, sp ReplaySpec, hub *progressHub, spl *spanLog) (*Entry, error) {
	if sp.Fleet != nil {
		return s.runFleetReplay(ctx, key, sp, spl)
	}
	spl.next("generate")
	conf := sp.config()
	reqs, err := sp.requests(conf.LogicalSectors())
	if err != nil {
		return nil, err
	}
	var r *sim.Runner
	var agingAttrs []string
	if sp.Age {
		akey, err := sp.AgingKey()
		if err != nil {
			return nil, err
		}
		agingAttrs = []string{"aging_key", akey}
		var cp *sim.Checkpoint
		if cp, r, err = s.warmStart(ctx, akey, &sp, conf, spl); err != nil {
			return nil, err
		}
		if cp != nil {
			if r, err = cp.Fork(); err != nil {
				return nil, err
			}
		}
	} else if r, err = sim.NewRunner(sim.SchemeKind(sp.Scheme), conf); err != nil {
		return nil, err
	}
	smp, err := obs.NewSampler(s.cfg.SampleIntervalMs)
	if err != nil {
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
	entry, err := buildEntry(key, "replay", sp, replayResultDoc(res))
	if err != nil {
		return nil, err
	}
	if err := s.putSeries(key, smp.Samples()); err != nil {
		return nil, jobs.Transient(err)
	}
	if err := s.store.Put(key, entry); err != nil {
		return nil, jobs.Transient(err)
	}
	hub.Release()
	spl.next("")
	return entry, nil
}

// runFleetReplay executes one fleet replay job: build the N-device volume
// by forking every device from the single-device AgingKey checkpoint (aging
// one device and storing the checkpoint if none exists — the same store
// entry non-fleet jobs use), then replay the trace through the layout.
// Fleet replays have no per-request progress sampler yet, so the stored
// entry has no series sibling.
func (s *Server) runFleetReplay(ctx context.Context, key string, sp ReplaySpec, spl *spanLog) (*Entry, error) {
	spl.next("generate")
	conf := sp.config()
	fspec := sp.fleetSpec()
	sectors, err := fspec.LogicalSectors(conf)
	if err != nil {
		return nil, err
	}
	reqs, err := sp.requests(sectors)
	if err != nil {
		return nil, err
	}
	var v *fleet.Volume
	var agingAttrs []string
	if sp.Age {
		akey, err := sp.AgingKey()
		if err != nil {
			return nil, err
		}
		agingAttrs = []string{"aging_key", akey}
		// Same flight lock, store entry and cache as single-device jobs: the
		// first job ages once, everyone else — fleet or not — forks.
		cp, _, err := s.warmStart(ctx, akey, &sp, conf, spl)
		if err != nil {
			return nil, err
		}
		if v, err = fleet.FromCheckpoint(cp, fspec); err != nil {
			return nil, err
		}
	} else if v, err = fleet.New(sim.SchemeKind(sp.Scheme), conf, fspec); err != nil {
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
	entry, err := buildEntry(key, "replay", sp, fleetResultDoc(res, conf.Chips()))
	if err != nil {
		return nil, err
	}
	if err := s.store.Put(key, entry); err != nil {
		return nil, jobs.Transient(err)
	}
	spl.next("")
	return entry, nil
}

// runExperiment executes one experiment job: a fresh session (scoped to the
// job's context so cancellation stops its replay pool) renders the artifact
// into a buffer, which is stored as the result.
func (s *Server) runExperiment(ctx context.Context, key string, sp ExperimentSpec) (*Entry, error) {
	sess, err := experiments.NewSession(sp.sessionConfig())
	if err != nil {
		return nil, err
	}
	sess.WithContext(ctx)
	var buf bytes.Buffer
	if err := experiments.RunOne(sp.ID, sess, &buf); err != nil {
		return nil, err
	}
	entry, err := buildEntry(key, "experiment", sp, &ExperimentResult{ID: sp.ID, Output: buf.String()})
	if err != nil {
		return nil, err
	}
	if err := s.store.Put(key, entry); err != nil {
		return nil, jobs.Transient(err)
	}
	return entry, nil
}

func buildEntry(key, kind string, spec, result any) (*Entry, error) {
	sb, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("service: encoding spec: %w", err)
	}
	rb, err := json.Marshal(result)
	if err != nil {
		return nil, fmt.Errorf("service: encoding result: %w", err)
	}
	return &Entry{Key: key, Kind: kind, Spec: sb, Result: rb}, nil
}
