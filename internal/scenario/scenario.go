// Package scenario composes time-varying, multi-cohort workloads for the
// simulator. Where package workload synthesises one stationary-Poisson
// request stream, a Scenario layers three workload-shaping effects on top —
// the effects EagleTree showed flip SSD algorithm rankings and that the
// across-page schemes compete on:
//
//   - temporal patterns (Pattern): ramps, bursts and day/night cycles
//     modulating each cohort's arrival rate over simulated time, realised
//     as an exact inhomogeneous-Poisson time rescaling;
//   - tenant cohorts (Cohort): several workloads — synthetic profiles or a
//     parsed real trace — sharing one device, each confined to its own LBA
//     partition, merged into a single deterministic arrival-ordered stream;
//   - storable artifacts: a generated Stream round-trips through the
//     versioned trace-v2 container (tracev2.go), so scenarios are
//     diffable, content-addressable files rather than transient slices.
//
// Everything is deterministic: the same Scenario and device size produce a
// byte-identical Stream on every run, on every platform, which is what lets
// acrossd key scenario jobs by content and lets CI byte-compare serial and
// parallel replays of the same scenario.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"across/internal/trace"
	"across/internal/workload"
)

// Typed validation errors, for callers that branch on the failure class.
var (
	// ErrNoCohorts: a scenario without cohorts generates nothing.
	ErrNoCohorts = errors.New("scenario: no cohorts")
	// ErrZeroDuration: a temporal pattern with a zero-length phase (period
	// or spike duty), which would burst infinitely often.
	ErrZeroDuration = errors.New("scenario: zero-duration pattern phase")
	// ErrZeroRequests: a cohort that contributes no requests.
	ErrZeroRequests = errors.New("scenario: zero-request cohort")
	// ErrPartition: a cohort LBA partition that is empty, out of [0,1], or
	// too small to host its workload.
	ErrPartition = errors.New("scenario: bad cohort partition")
	// ErrPartitionOverlap: two cohorts whose LBA partitions intersect —
	// tenants must not silently share (and corrupt) each other's space.
	ErrPartitionOverlap = errors.New("scenario: overlapping cohort partitions")
)

// arrivalSeedSalt decorrelates the arrival-time stream from the generator's
// address/size stream, which reuses the same profile seed.
const arrivalSeedSalt = 0x5ca1ab1e

// Cohort is one tenant of a scenario: a workload source confined to an LBA
// partition, with its own temporal pattern and activation offset.
//
// The source is either synthetic (Profile; the usual case) or a real parsed
// trace (Trace non-empty — e.g. an MSR Cambridge volume read through
// internal/trace). A trace cohort keeps its recorded inter-arrival times and
// ignores Pattern; its offsets are wrapped into the partition modulo the
// page-aligned partition size, preserving each request's alignment class
// except for requests that nearly fill the partition (see retimeTrace).
type Cohort struct {
	// Name labels the cohort in metadata and reports.
	Name string `json:"name"`
	// Profile is the synthetic workload source (ignored when Trace is set).
	Profile workload.Profile `json:"profile"`
	// Trace is the real-trace source. It is deliberately excluded from
	// JSON: content keys represent trace bytes by their hash, not by
	// embedding millions of requests.
	Trace []trace.Request `json:"-"`
	// TraceName names the trace source in metadata when Trace is set.
	TraceName string `json:"trace_name,omitempty"`
	// Pattern modulates the cohort's arrival rate over time.
	Pattern Pattern `json:"pattern"`
	// StartFrac and SizeFrac place the cohort's LBA partition: the cohort
	// owns [StartFrac, StartFrac+SizeFrac) of the device's logical space.
	// SizeFrac 0 on a sole cohort means the whole device.
	StartFrac float64 `json:"start_frac"`
	SizeFrac  float64 `json:"size_frac"`
	// StartMs delays the cohort's first arrival (tenant onboarding).
	StartMs float64 `json:"start_ms,omitempty"`
}

// isTrace reports whether the cohort replays a recorded trace.
func (c *Cohort) isTrace() bool { return len(c.Trace) > 0 }

// requests returns how many requests the cohort contributes.
func (c *Cohort) requests() int {
	if c.isTrace() {
		return len(c.Trace)
	}
	return c.Profile.Requests
}

// Scenario is a named composition of cohorts over one logical address
// space. The zero value is invalid; use Builtin, FromTrace, or construct
// cohorts explicitly and Validate.
type Scenario struct {
	// Name identifies the scenario in artifacts and content keys.
	Name string `json:"name"`
	// Cohorts are the tenants sharing the device.
	Cohorts []Cohort `json:"cohorts"`
}

// Scale returns a copy with every synthetic cohort's request count scaled by
// f (workload.Profile.Scale semantics) and every trace cohort truncated to
// its first f fraction of requests — the quick-run knob of the experiment
// harness, applied uniformly across tenants.
func (sc Scenario) Scale(f float64) Scenario {
	cs := make([]Cohort, len(sc.Cohorts))
	copy(cs, sc.Cohorts)
	for i := range cs {
		if cs[i].isTrace() {
			// Clamp in float space: int() of an out-of-range float64 is
			// implementation-defined, so compare before converting.
			scaled := float64(len(cs[i].Trace)) * f
			n := len(cs[i].Trace)
			if math.IsNaN(scaled) || scaled < 1 {
				n = 1
			} else if scaled < float64(n) {
				n = int(scaled)
			}
			cs[i].Trace = cs[i].Trace[:n]
		} else {
			cs[i].Profile = cs[i].Profile.Scale(f)
		}
	}
	sc.Cohorts = cs
	return sc
}

// WithSeedOffset returns a copy with delta added to every synthetic
// cohort's generator seed — the scenario analogue of the replay spec's seed
// knob, shifting all tenants to an independent but still deterministic draw.
func (sc Scenario) WithSeedOffset(delta int64) Scenario {
	cs := make([]Cohort, len(sc.Cohorts))
	copy(cs, sc.Cohorts)
	for i := range cs {
		if !cs[i].isTrace() {
			cs[i].Profile.Seed += delta
		}
	}
	sc.Cohorts = cs
	return sc
}

// normalised fills defaults: a sole cohort with no partition gets the whole
// device, and patterns get their per-kind defaults.
func (sc Scenario) normalised() Scenario {
	cs := make([]Cohort, len(sc.Cohorts))
	copy(cs, sc.Cohorts)
	for i := range cs {
		if len(cs) == 1 && cs[i].SizeFrac == 0 {
			cs[i].StartFrac, cs[i].SizeFrac = 0, 1
		}
		cs[i].Pattern = cs[i].Pattern.normalised()
	}
	sc.Cohorts = cs
	return sc
}

// partition computes a cohort's page-aligned sector range on a device of
// logicalSectors sectors.
func (c *Cohort) partition(logicalSectors int64) (start, size int64) {
	start = int64(float64(logicalSectors) * c.StartFrac)
	size = int64(float64(logicalSectors) * c.SizeFrac)
	start -= start % workload.RefSPP
	size -= size % workload.RefSPP
	return start, size
}

// minPartitionSectors is the smallest partition a cohort can live in —
// workload.NewGenerator's device floor (16 reference pages).
const minPartitionSectors = 16 * workload.RefSPP

// Validate checks the scenario (after normalisation) against a device of
// logicalSectors addressable sectors. Failures wrap the typed errors above.
func (sc Scenario) Validate(logicalSectors int64) error {
	sc = sc.normalised()
	if len(sc.Cohorts) == 0 {
		return fmt.Errorf("%w (scenario %q)", ErrNoCohorts, sc.Name)
	}
	type span struct {
		name       string
		start, end int64
	}
	spans := make([]span, 0, len(sc.Cohorts))
	for i := range sc.Cohorts {
		c := &sc.Cohorts[i]
		if c.requests() <= 0 {
			return fmt.Errorf("%w: cohort %q", ErrZeroRequests, c.Name)
		}
		if err := c.Pattern.validate(); err != nil {
			return fmt.Errorf("cohort %q: %w", c.Name, err)
		}
		if c.StartFrac < 0 || c.SizeFrac <= 0 || c.StartFrac+c.SizeFrac > 1+1e-9 {
			return fmt.Errorf("%w: cohort %q occupies [%g, %g)",
				ErrPartition, c.Name, c.StartFrac, c.StartFrac+c.SizeFrac)
		}
		start, size := c.partition(logicalSectors)
		if size < minPartitionSectors {
			return fmt.Errorf("%w: cohort %q partition is %d sectors (min %d)",
				ErrPartition, c.Name, size, minPartitionSectors)
		}
		if !c.isTrace() {
			if err := c.Profile.Validate(); err != nil {
				return fmt.Errorf("cohort %q: %w", c.Name, err)
			}
		}
		spans = append(spans, span{c.Name, start, start + size})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for i := 1; i < len(spans); i++ {
		if spans[i].start < spans[i-1].end {
			return fmt.Errorf("%w: %q and %q", ErrPartitionOverlap, spans[i-1].name, spans[i].name)
		}
	}
	return nil
}

// CohortInfo is per-cohort stream metadata: what the trace-v2 header records
// about each tenant.
type CohortInfo struct {
	// Name is the cohort's label.
	Name string `json:"name"`
	// Requests is how many of the stream's requests this cohort produced.
	Requests int64 `json:"requests"`
	// StartSector and Sectors are the cohort's resolved LBA partition.
	StartSector int64 `json:"start_sector"`
	Sectors     int64 `json:"sectors"`
}

// Stream is a generated scenario workload: the merged request stream plus
// the metadata that makes it a self-describing artifact.
type Stream struct {
	// Scenario is the generating scenario's name.
	Scenario string `json:"scenario"`
	// LogicalSectors is the device size the stream was generated for.
	LogicalSectors int64 `json:"logical_sectors"`
	// Cohorts records each tenant's contribution and partition.
	Cohorts []CohortInfo `json:"cohorts"`
	// Requests is the merged, arrival-ordered stream.
	Requests []trace.Request `json:"-"`
}

// Generate materialises the scenario for a device of logicalSectors
// addressable sectors: each cohort's stream is produced in its partition,
// re-timed by its temporal pattern, and the streams are merged by arrival
// time with (time, cohort index) tie-breaking — fully deterministic. The
// synthetic cohorts are merged as they are drawn, into one slice sized from
// their generators' counts.
func (sc Scenario) Generate(logicalSectors int64) (*Stream, error) {
	sc = sc.normalised()
	if err := sc.Validate(logicalSectors); err != nil {
		return nil, err
	}
	out := &Stream{Scenario: sc.Name, LogicalSectors: logicalSectors}
	srcs := make([]func() (trace.Request, bool), len(sc.Cohorts))
	total := 0
	for i := range sc.Cohorts {
		c := &sc.Cohorts[i]
		start, size := c.partition(logicalSectors)
		if c.isTrace() {
			srcs[i] = replay(retimeTrace(c, start, size))
		} else {
			next, err := drawCohort(c, start, size)
			if err != nil {
				return nil, fmt.Errorf("cohort %q: %w", c.Name, err)
			}
			srcs[i] = next
		}
		total += c.requests()
		out.Cohorts = append(out.Cohorts, CohortInfo{Name: c.Name, StartSector: start, Sectors: size})
	}

	// heads[i] is cohort i's earliest undrawn request, while live[i].
	heads := make([]trace.Request, len(srcs))
	live := make([]bool, len(srcs))
	advance := func(i int) { heads[i], live[i] = srcs[i]() }
	for i := range srcs {
		advance(i)
	}
	out.Requests = make([]trace.Request, 0, total)
	for {
		best := -1
		for i, h := range heads {
			if live[i] && (best < 0 || h.Time < heads[best].Time) {
				best = i
			}
		}
		if best < 0 {
			return out, nil
		}
		out.Requests = append(out.Requests, heads[best])
		out.Cohorts[best].Requests++
		advance(best)
	}
}

// drawCohort returns the draw of one synthetic cohort: addresses and sizes
// from the workload generator scoped to the partition, arrival times from
// the pattern's inhomogeneous-Poisson walker seeded independently of the
// address stream.
func drawCohort(c *Cohort, start, size int64) (func() (trace.Request, bool), error) {
	g, err := workload.NewGenerator(c.Profile, size)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Profile.Seed ^ arrivalSeedSalt))
	walk := c.Pattern.newArrivals(c.Profile.MeanIOPS / 1000) // req/ms
	return func() (trace.Request, bool) {
		r, ok := g.Next()
		if ok {
			r.Offset += start
			r.Time = c.StartMs + walk.next(rng.ExpFloat64())
		}
		return r, ok
	}, nil
}

// replay returns the draw of a materialised stream.
func replay(reqs []trace.Request) func() (trace.Request, bool) {
	return func() (trace.Request, bool) {
		if len(reqs) == 0 {
			return trace.Request{}, false
		}
		r := reqs[0]
		reqs = reqs[1:]
		return r, true
	}
}

// retimeTrace maps a recorded trace into the cohort's partition: offsets
// wrap modulo the page-aligned partition size, requests that would spill
// past the partition end are pulled back, and recorded arrival times shift
// by StartMs. The modulus and the pull-back are both RefSPP multiples, so
// each request keeps its offset modulo the reference page — and with it its
// alignment class — except when the request nearly fills the partition
// (Count within one page of the partition size, including counts clamped
// down to it), where no aligned slot fits and the request lands flush
// against the partition end instead. Recorded traces are replayed at their
// native pacing, so the cohort's Pattern is not applied.
func retimeTrace(c *Cohort, start, size int64) []trace.Request {
	out := make([]trace.Request, 0, len(c.Trace))
	for _, r := range c.Trace {
		if int64(r.Count) > size {
			r.Count = int32(size) // size < r.Count
		}
		off := r.Offset % size
		if off+int64(r.Count) > size {
			// Pull back by whole reference pages so off mod RefSPP survives.
			excess := off + int64(r.Count) - size
			shift := (excess + workload.RefSPP - 1) / workload.RefSPP * workload.RefSPP
			if shift > off {
				// The request nearly fills the partition: no slot at the
				// original alignment exists, take the exact fit at the end.
				off = size - int64(r.Count)
			} else {
				off -= shift
			}
		}
		r.Offset = start + off
		r.Time += c.StartMs
		out = append(out, r)
	}
	// Recorded streams are normally time-ordered already; a stable sort
	// makes the guarantee unconditional without disturbing equal arrivals.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
