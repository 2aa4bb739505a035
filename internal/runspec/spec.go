// Package runspec is the one description of a single replay run: scheme,
// device, workload (a Table 2 profile or a scenario), queue depth, aging and
// fleet. acrossd decodes its submit-body into a Spec and acrosssim decodes
// its flags into one; both get the device config, the volume, the sizing
// and the request stream from it, and the daemon keys its store by the
// spec's content hash (Key, AgingKey).
package runspec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"across/internal/fleet"
	"across/internal/scenario"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/store"
	"across/internal/trace"
	"across/internal/workload"
)

// KeyVersion is baked into every job key: bump it when the simulator's
// semantics change enough that cached results should stop being served.
const KeyVersion = 1

// scenarioKeyVersion versions the scenario branch of Key on its own, so the
// scenario layer can evolve without orphaning every non-scenario cache
// entry. v2 added TraceReqs: Cohort.Trace is excluded from the scenario's
// JSON and TraceSHA hashes the original file bytes, so without the resolved
// per-cohort counts, trace specs differing only in Scale collided on one
// key and served each other's truncated results.
const scenarioKeyVersion = 2

// Spec is one replay run: one trace replayed against one scheme on one
// device or fleet volume. It is the submit-body of an acrossd replay job and
// what acrosssim's flags decode into. Priority and TimeoutMs steer the
// daemon's scheduling only and are excluded from the content key.
type Spec struct {
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

// MaxTraceFileBytes bounds the file a scenario's trace_path may name: it is
// read whole, by the submit handler and again by the job.
const MaxTraceFileBytes = 256 << 20

// OpenTraceFile opens a trace_path; tests swap it to count or redirect the
// opens.
var OpenTraceFile = os.Open

// readTraceFile reads a trace_path whole, refusing one over the bound
// before any of it is read or parsed.
func readTraceFile(path string) ([]byte, error) {
	f, err := OpenTraceFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return nil, err
	} else if fi.Size() > MaxTraceFileBytes {
		return nil, fmt.Errorf("trace file %s is %d bytes, over the %d-byte bound", path, fi.Size(), MaxTraceFileBytes)
	}
	// The bound again, for a file that grows or has no size to report.
	data, err := io.ReadAll(io.LimitReader(f, MaxTraceFileBytes+1))
	if err == nil && len(data) > MaxTraceFileBytes {
		err = fmt.Errorf("trace file %s is over the %d-byte bound", path, MaxTraceFileBytes)
	}
	return data, err
}

// baseScenario resolves the scenario block into a scenario plus the
// SHA-256 of the trace file's bytes ("" for builtins).
func (sp *Spec) baseScenario() (scenario.Scenario, string, error) {
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
func (sp *Spec) resolvedScenario() (scenario.Scenario, string, error) {
	sc, traceSHA, err := sp.baseScenario()
	if err != nil {
		return scenario.Scenario{}, "", err
	}
	return sc.Scale(sp.Scale).WithSeedOffset(sp.Seed), traceSHA, nil
}

// ScenarioOnce resolves a spec's scenario block at most once — for a
// trace_path a file read, a parse and a SHA-256 — however many of
// ValidateOnce, KeyOnce and Stream ask: a submission shares one between the
// first two, a CLI run among all three.
type ScenarioOnce struct {
	done     bool
	sc       scenario.Scenario
	traceSHA string
	err      error
}

func (o *ScenarioOnce) get(sp *Spec) (scenario.Scenario, string, error) {
	if !o.done {
		o.sc, o.traceSHA, o.err = sp.resolvedScenario()
		o.done = true
	}
	return o.sc, o.traceSHA, o.err
}

// TraceSHA is the SHA-256 of the trace file the resolution read ("" when it
// read none, or has not run).
func (o *ScenarioOnce) TraceSHA() string { return o.traceSHA }

// Stream generates the scenario block's stream for logicalSectors, with the
// scenario resolved through once.
func (sp *Spec) Stream(once *ScenarioOnce, logicalSectors int64) (*scenario.Stream, error) {
	sc, _, err := once.get(sp)
	if err != nil {
		return nil, err
	}
	return sc.Generate(logicalSectors)
}

// Requests produces the job's request stream: the scenario engine when a
// scenario block is present, the profile generator otherwise. It also
// returns the SHA-256 of the trace file it read ("" when it read none), for
// the job to hold against the hash its key was built from.
func (sp *Spec) Requests(logicalSectors int64) ([]trace.Request, string, error) {
	if sp.Scenario != nil {
		var once ScenarioOnce
		st, err := sp.Stream(&once, logicalSectors)
		if err != nil {
			return nil, "", err
		}
		return st.Requests, once.TraceSHA(), nil
	}
	prof, err := sp.ScaledProfile()
	if err != nil {
		return nil, "", err
	}
	reqs, err := workload.Generate(prof, logicalSectors)
	return reqs, "", err
}

// Volume resolves the fleet block into the fleet package's spec.
func (sp *Spec) Volume() fleet.Spec {
	return fleet.Spec{
		Devices:      sp.Fleet.Devices,
		Layout:       fleet.Layout(sp.Fleet.Layout),
		ChunkSectors: int64(sp.Fleet.ChunkKB) * 1024 / ssdconf.SectorBytes,
	}
}

// LogicalSectors sizes the workload: to a device of conf, or in fleet mode
// to the volume of such devices.
func (sp *Spec) LogicalSectors(conf ssdconf.Config) (int64, error) {
	if sp.Fleet == nil {
		return conf.LogicalSectors(), nil
	}
	return sp.Volume().LogicalSectors(conf)
}

// Normalise fills the defaults, so equivalent specs share one content key.
func (sp *Spec) Normalise() {
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

// Validate checks a normalised spec: the device it builds and the workload
// it replays.
func (sp *Spec) Validate() error { return sp.ValidateOnce(&ScenarioOnce{}) }

// ValidateOnce is Validate with the scenario resolved through once.
func (sp *Spec) ValidateOnce(once *ScenarioOnce) error {
	if err := sp.ValidateDevice(); err != nil {
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
	if sp.Scenario != nil {
		// Resolve now so unknown builtins, unreadable trace files and bad
		// partitions fail at submit time, not inside a scheduled job. A
		// single-device check is conservative for fleet jobs: the volume's
		// logical space is never smaller than one device's.
		sc, _, err := once.get(sp)
		if err != nil {
			return err
		}
		conf := sp.Config()
		if err := sc.Validate(conf.LogicalSectors()); err != nil {
			return err
		}
	}
	return nil
}

// ValidateDevice checks what a normalised spec builds, leaving its workload
// alone: the scheme, the device config and the fleet block.
func (sp *Spec) ValidateDevice() error {
	if _, err := sim.ParseKind(sp.Scheme); err != nil {
		return err
	}
	conf := sp.Config()
	if err := conf.Validate(); err != nil {
		return err
	}
	if sp.Fleet != nil {
		if _, err := fleet.ParseLayout(sp.Fleet.Layout); err != nil {
			return err
		}
		if err := sp.Volume().Validate(conf); err != nil {
			return err
		}
	}
	return nil
}

// Config is the device configuration the spec names.
func (sp *Spec) Config() ssdconf.Config {
	conf := ssdconf.Experiment()
	if sp.Full {
		conf = ssdconf.Table1()
	}
	return conf.WithPageBytes(sp.Page)
}

// ScaledProfile resolves the fully-scaled, seed-offset workload profile —
// the exact generator input, which is what the content key must capture.
func (sp *Spec) ScaledProfile() (workload.Profile, error) {
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
func (sp *Spec) Key() (string, error) { return sp.KeyOnce(&ScenarioOnce{}) }

// KeyOnce is Key with the scenario resolved through once.
func (sp *Spec) KeyOnce(once *ScenarioOnce) (string, error) {
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
			f := sp.Volume()
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
		}{KeyVersion, scenarioKeyVersion, kind, sp.Config(), sc, traceSHA, traceReqs, sp.QD, sp.Age, fspec})
	}
	prof, err := sp.ScaledProfile()
	if err != nil {
		return "", err
	}
	if sp.Fleet != nil {
		fspec := sp.Volume()
		return store.HashJSON(struct {
			V       int
			Kind    string
			Conf    ssdconf.Config
			Profile workload.Profile
			QD      int
			Age     bool
			Fleet   fleet.Spec
		}{KeyVersion, "fleet-replay/" + sp.Scheme, sp.Config(), prof, sp.QD, sp.Age, fspec})
	}
	return store.HashJSON(struct {
		V       int
		Kind    string
		Conf    ssdconf.Config
		Profile workload.Profile
		QD      int
		Age     bool
	}{KeyVersion, "replay/" + sp.Scheme, sp.Config(), prof, sp.QD, sp.Age})
}

// AgingKey is the content address of the warm state this spec's aging
// phase produces: a hash over the scheme, the full device configuration and
// the aging recipe — and nothing else. Aging (sim.DefaultAging) is
// workload-independent, so profile/scale/seed do not belong here; neither
// do measurement knobs (qd) nor scheduling knobs (priority, timeout), which
// must never fragment checkpoint reuse. Every job whose
// AgingKey matches forks from one cached checkpoint instead of re-aging.
func (sp *Spec) AgingKey() (string, error) {
	return store.HashJSON(struct {
		V     int
		Kind  string
		Conf  ssdconf.Config
		Aging sim.Aging
	}{KeyVersion, "aging/" + sp.Scheme, sp.Config(), sim.DefaultAging()})
}
