// Package across is the public API of the Across-FTL reproduction: a
// trace-driven flash SSD simulator with three flash-translation-layer
// schemes — the conventional page-level FTL, the MRSM sub-page comparator,
// and Across-FTL, which re-aligns across-page requests (requests no larger
// than one flash page that span two logical pages) onto single physical
// pages via a two-level mapping table.
//
// The typical flow is:
//
//	cfg := across.ExperimentConfig()                   // Table 1, scaled
//	prof, _ := across.Profile("lun1")                  // Table 2 workload
//	reqs, _ := across.GenerateTrace(prof.Scale(0.05), cfg.LogicalSectors())
//	res, _ := across.Run(across.AcrossFTL, cfg, reqs, true)
//	fmt.Println(res.AvgWriteLatency(), res.Counters.Erases)
//
// The experiment harness that regenerates every table and figure of the
// paper is exposed through ExperimentIDs / RunExperiment.
package across

import (
	"io"

	"across/internal/check"
	"across/internal/experiments"
	"across/internal/fleet"
	"across/internal/obs"
	"across/internal/scenario"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// Config describes the simulated SSD: geometry (channel → chip → die →
// plane → block → page), NAND timing, and FTL parameters. See the ssdconf
// field documentation for the full list.
type Config = ssdconf.Config

// Request is one block-level I/O in 512 B sectors.
type Request = trace.Request

// RequestClass is the alignment classification of a request against the
// flash page size (Request.Classify).
type RequestClass = trace.Class

// The alignment classes of RequestClass.
const (
	// ClassAligned starts and ends on page boundaries.
	ClassAligned = trace.ClassAligned
	// ClassAcross is the paper's special case: no larger than one page but
	// spanning two logical pages.
	ClassAcross = trace.ClassAcross
	// ClassUnaligned is any other request touching a partial page.
	ClassUnaligned = trace.ClassUnaligned
)

// WorkloadProfile parameterises a synthetic enterprise-VDI trace
// (request count, write ratio, mean write size, across-page ratio, locality,
// arrival rate).
type WorkloadProfile = workload.Profile

// Result carries everything a replay measures: per-direction latencies,
// flash operation counters split Map/Data/GC, erase counts, per-alignment-
// class buckets, table sizes and the Across-FTL operation census.
type Result = sim.Result

// Scheme selects the FTL design to simulate.
type Scheme = sim.SchemeKind

// The three compared schemes.
const (
	// BaselineFTL is the conventional dynamic page-level mapping FTL.
	BaselineFTL = sim.KindFTL
	// MRSM is the sub-page multiregional space management comparator.
	MRSM = sim.KindMRSM
	// AcrossFTL is the paper's contribution.
	AcrossFTL = sim.KindAcross
	// DFTL is a demand-paged page-mapping baseline (extension scheme,
	// outside the paper's comparison).
	DFTL = sim.KindDFTL
)

// Schemes returns the comparison order used throughout the paper.
func Schemes() []Scheme { return sim.Kinds() }

// Table1Config returns the paper's full-scale Table 1 device (128 GiB raw).
func Table1Config() Config { return ssdconf.Table1() }

// ExperimentConfig returns the shape-preserving scaled device (2 GiB raw)
// the experiment harness defaults to.
func ExperimentConfig() Config { return ssdconf.Experiment() }

// ScaledConfig returns Table 1 with the block count divided by factor.
func ScaledConfig(factor int) Config { return ssdconf.Scaled(factor) }

// Profiles returns the six Table 2 trace profiles (lun1–lun6).
func Profiles() []WorkloadProfile { return workload.LunProfiles() }

// Profile returns one Table 2 profile by name ("lun1".."lun6").
func Profile(name string) (WorkloadProfile, error) { return workload.LunProfile(name) }

// Collection returns n Fig 2-style profiles with spread across-page ratios.
func Collection(n int) []WorkloadProfile { return workload.Collection(n) }

// GenerateTrace synthesises the request stream of a profile for a device
// with the given number of logical sectors.
func GenerateTrace(p WorkloadProfile, logicalSectors int64) ([]Request, error) {
	return workload.Generate(p, logicalSectors)
}

// ReadTrace parses a SYSTOR '17-format CSV block trace
// (timestamp,response,io_type,lun,offset,size).
func ReadTrace(r io.Reader) ([]Request, error) { return trace.ReadAll(r) }

// ReadMSRTrace parses an MSR Cambridge-format CSV block trace
// (Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime).
func ReadMSRTrace(r io.Reader) ([]Request, error) { return trace.ReadAllMSR(r) }

// ReadTraceAuto sniffs the format from the first non-empty line (SYSTOR '17
// or MSR Cambridge) and parses accordingly.
func ReadTraceAuto(r io.Reader) ([]Request, error) {
	return trace.ReadAllAuto(r)
}

// WriteTrace emits requests in the SYSTOR '17 CSV format.
func WriteTrace(w io.Writer, lun int, reqs []Request) error {
	tw := trace.NewWriter(w, lun)
	for _, r := range reqs {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// TraceStats computes Table 2-style statistics (write ratio, mean write
// size, across-page ratio) for a trace at a page size of pageBytes.
func TraceStats(reqs []Request, pageBytes int) *trace.Stats {
	return trace.Measure(reqs, pageBytes/ssdconf.SectorBytes)
}

// Run replays a trace against a freshly built scheme; when age is true the
// device is first warmed to the paper's §4.1 state (90% used, ~40% valid).
func Run(s Scheme, cfg Config, reqs []Request, age bool) (*Result, error) {
	return sim.Run(s, cfg, reqs, age)
}

// ErrRecoveryUnsupported is the error RecoverFromCrash wraps for a scheme
// that cannot rebuild its mapping from flash alone (MRSM and DFTL); test for
// it with errors.Is. The runner it was given is left untouched.
var ErrRecoveryUnsupported = sim.ErrRecoveryUnsupported

// RecoverFromCrash simulates power loss on a runner's device and remounts
// it: all in-DRAM mapping state is discarded and rebuilt from the flash
// array's out-of-band metadata (open blocks are sealed first, as real
// controllers do). A host data cache (NewRunnerWithHostCache) is DRAM too:
// it comes back at its size and empty. Supported for AcrossFTL and
// BaselineFTL; any other scheme fails with ErrRecoveryUnsupported. The
// returned runner owns the same physical device; the old runner must not be
// used.
func RecoverFromCrash(r *Runner) (*Runner, error) { return sim.Recover(r) }

// Aging parameterises the §4.1 device warm-up (used/valid fractions, seed).
type Aging = sim.Aging

// DefaultAging returns the paper's warm-up setting: 90% of capacity used
// with ~39.8% valid.
func DefaultAging() Aging { return sim.DefaultAging() }

// Runner gives step-by-step control (build, age, replay several traces
// against the same aged device).
type Runner = sim.Runner

// NewRunner builds a scheme of the given kind on a fresh device.
func NewRunner(s Scheme, cfg Config) (*Runner, error) { return sim.NewRunner(s, cfg) }

// NewRunnerWithHostCache builds a runner whose scheme is wrapped in a DRAM
// data buffer of cachePages logical pages (the Table 1 "cache size" knob).
// Writes are write-through, so flush counts and erase counts are unaffected;
// repeated reads of resident pages are served at DRAM speed.
func NewRunnerWithHostCache(s Scheme, cfg Config, cachePages int) (*Runner, error) {
	return sim.NewRunnerWithHostCache(s, cfg, cachePages)
}

// RestoreRunner reconstructs a replay-ready Runner from a warm-state
// snapshot produced by Runner.Snapshot (DESIGN §13). The snapshot embeds
// the scheme kind, device configuration and host-cache size, so no other
// arguments are needed; the restored state is audited before the runner is
// returned, and a tampered or truncated blob fails with a typed error. A
// snapshot is a cache of an aged device, not an archive: one written by
// another format version is refused (naming the version found and the version
// supported) and never migrated — re-create it with -snapshot-out, or
// Runner.Snapshot.
func RestoreRunner(blob []byte) (*Runner, error) { return sim.Restore(blob) }

// Checkpoint is a device's starting state, forked by every replay and every
// fleet device that starts from it (DESIGN §13): take one with
// Runner.Checkpoint from a fresh, aged or restored runner, or with
// FreshCheckpoint, and call Fork for each runner.
type Checkpoint = sim.Checkpoint

// FreshCheckpoint is the checkpoint of a device nothing has written: it
// refuses what NewRunner refuses, and each Fork builds a fresh device.
func FreshCheckpoint(s Scheme, cfg Config) (*Checkpoint, error) {
	return sim.FreshCheckpoint(s, cfg)
}

// Tracer receives span-style observability events from a replay: request
// arrivals and completions, flash command service spans, GC victim and
// collection spans, Across-FTL plan decisions, and cache accesses. Install
// one with Runner.SetTracer. The zero-cost default is no tracer at all.
type Tracer = obs.Tracer

// Sampler snapshots time-series metrics (queue depth, per-chip busy
// fraction, WAF, GC debt, mapping-cache hit rate) on a simulated-clock
// interval; install one with Runner.SetSampler.
type Sampler = obs.Sampler

// MetricSample is one periodic snapshot taken by a Sampler.
type MetricSample = obs.Sample

// NewSampler builds a metrics sampler with the given simulated-ms interval.
func NewSampler(intervalMs float64) (*Sampler, error) { return obs.NewSampler(intervalMs) }

// OpenTraceFile creates an event-trace file for a device with the given
// chip count: a path ending in .jsonl gets the line-oriented event stream;
// anything else gets Chrome trace_event JSON, which Perfetto and
// chrome://tracing open directly. Close the returned closer after the
// replay to finalise the file.
func OpenTraceFile(path string, chips int) (Tracer, io.Closer, error) {
	return obs.OpenTrace(path, chips)
}

// Checker drives the correctness-verification layer during a replay: a
// data-integrity shadow model consulted after every host request and a
// device-wide invariant audit run periodically and at end of run. Install one
// with Runner.EnableChecks; any violation aborts the replay with a
// descriptive error.
type Checker = check.Checker

// CheckOptions configures a Checker: Shadow enables the per-request shadow
// model, AuditEvery sets the audit period in requests (0 = end of run only).
type CheckOptions = check.Options

// ExperimentConfigDefaults returns the default harness configuration:
// scaled Table 1 geometry, 5% trace lengths, aged device, 61-trace Fig 2
// collection.
func ExperimentConfigDefaults() experiments.Config { return experiments.DefaultConfig() }

// ExperimentIDs lists, sorted, every id RunExperiment accepts: the paper
// artifacts (table1, table2, fig2, fig4, fig8–fig14) and the extension
// studies (ext-*).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table/figure or extension study,
// writing it to w.
func RunExperiment(id string, cfg experiments.Config, w io.Writer) error {
	s, err := experiments.NewSession(cfg)
	if err != nil {
		return err
	}
	return experiments.RunOne(id, s, w)
}

// Fleet is a host-level volume composed of N independent simulated SSDs
// behind one logical address space: logical requests are split into
// per-device sub-requests by the volume's layout and complete when the
// slowest sub-request lands (DESIGN §14).
type Fleet = fleet.Volume

// FleetSpec describes a fleet volume: device count, layout, and stripe
// chunk size in sectors (0 picks the 64 KiB default; concat ignores it).
type FleetSpec = fleet.Spec

// FleetResult is everything one fleet replay measures: logical-request
// latencies (join of the slowest fragment), fan-out, re-fragmentation
// classes, and per-device balance reports.
type FleetResult = fleet.Result

// FleetLayout selects how a fleet volume maps logical addresses to devices.
type FleetLayout = fleet.Layout

// The supported fleet layouts.
const (
	// FleetConcat appends device address spaces back to back (no striping).
	FleetConcat = fleet.LayoutConcat
	// FleetRAID0 stripes the volume across all devices in fixed-size chunks.
	FleetRAID0 = fleet.LayoutRAID0
	// FleetRAID10 stripes across mirror pairs; writes hit both mirrors,
	// reads alternate between them by stripe row.
	FleetRAID10 = fleet.LayoutRAID10
)

// NewFleet builds a fleet whose every device is a fork of cp, so the scheme
// and configuration are the checkpoint's: a warm fleet forks an aged
// runner's Checkpoint, a cold one FreshCheckpoint.
func NewFleet(cp *Checkpoint, spec FleetSpec) (*Fleet, error) {
	return fleet.FromCheckpoint(cp, spec)
}

// Scenario composes time-varying, multi-cohort workloads (DESIGN §15):
// temporal arrival patterns modulating each cohort's rate over simulated
// time, tenant cohorts (synthetic profiles or parsed real traces) confined
// to disjoint LBA partitions of one device, merged into one deterministic
// arrival-ordered stream.
type Scenario = scenario.Scenario

// ScenarioCohort is one tenant of a Scenario: a workload source, an LBA
// partition, a temporal pattern, and an activation offset.
type ScenarioCohort = scenario.Cohort

// ScenarioPattern modulates a cohort's arrival rate over simulated time
// (constant, ramp, spike/burst, day-night).
type ScenarioPattern = scenario.Pattern

// ScenarioStream is a generated scenario workload: the merged request
// stream plus per-cohort metadata, storable as a trace-v2 container.
type ScenarioStream = scenario.Stream

// The temporal pattern kinds of ScenarioPattern.
const (
	// PatternConstant keeps the cohort at its profile rate.
	PatternConstant = scenario.PatternConstant
	// PatternRamp climbs from Base to Peak over PeriodMs, then holds.
	PatternRamp = scenario.PatternRamp
	// PatternSpike alternates a baseline with short bursts each period.
	PatternSpike = scenario.PatternSpike
	// PatternDayNight swings the rate through a discretised diurnal cycle.
	PatternDayNight = scenario.PatternDayNight
)

// EncodeScenarioStream seals a generated stream into the versioned trace-v2
// binary container (deterministic bytes, self-describing workload header).
func EncodeScenarioStream(s *ScenarioStream) ([]byte, error) {
	return scenario.EncodeStream(s)
}

// DecodeScenarioStream opens a trace-v2 container produced by
// EncodeScenarioStream, rejecting truncated, tampered or incompatible
// containers with typed errors.
func DecodeScenarioStream(blob []byte) (*ScenarioStream, error) {
	return scenario.DecodeStream(blob)
}
