package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"across/internal/check"
	"across/internal/obs"
	"across/internal/scenario"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// studySteps are the timed steps of one scheme's cold study, in order; each
// is a span name and a per-cell sample series.
var studySteps = []string{
	"scenario.generate", "scenario.encode", "scenario.decode", "trace.parse",
	"sim.age", "snapshot.encode", "snapshot.restore", "sim.replay",
}

// coldStudy is everything acrosssim does before and around a replay, with
// the replay itself small: per scheme, generate the three-tenant "mixed"
// scenario and round-trip it through the trace-v2 container, parse a
// SYSTOR-format CSV, build + age + snapshot + restore a device, then replay
// only the head of the stream with the shadow checker, the end-of-run audit
// and a 50 ms sampler attached.
type coldStudy struct {
	conf      ssdconf.Config
	kinds     []sim.SchemeKind
	scen      scenario.Scenario
	csv       workload.Profile
	headFrac  float64
	aging     sim.Aging
	csvData   []byte // lun1 in SYSTOR CSV form, as trace.Writer wrote it
	csvReqs   int
	streamMB  float64
	streamLen int
	headLen   int
	hostPages int64

	stepS      [][][]float64 // [kind][step][pass] seconds
	wallS      [][]float64   // [kind][pass]
	first      []*sim.Result
	firstDoc   [][]byte
	clockOps   int64
	snapBytes  []int
	checks     int64
	obsSamples int
}

func runStudyCold(b *bench) error {
	scen, err := scenario.Builtin("mixed")
	if err != nil {
		return err
	}
	csv, err := workload.LunProfile("lun1")
	if err != nil {
		return err
	}
	conf, scenScale, csvScale := ssdconf.Experiment(), 0.2, 0.4
	if b.opt.quick {
		conf, scenScale, csvScale = quickDevice(), 0.004, 0.01
	}
	csv = csv.Scale(csvScale)
	csv.Seed += b.opt.seed
	s := &coldStudy{
		conf:     conf,
		kinds:    sim.Kinds(),
		scen:     scen.Scale(scenScale).WithSeedOffset(b.opt.seed),
		csv:      csv,
		headFrac: 0.1,
		aging:    sim.DefaultAging(),
	}
	s.aging.Seed += b.opt.seed
	if err := b.setup(s.setup); err != nil {
		return err
	}
	s.stepS = make([][][]float64, len(s.kinds))
	for ki := range s.stepS {
		s.stepS[ki] = make([][]float64, len(studySteps))
	}
	s.wallS = make([][]float64, len(s.kinds))
	b.rep.Sizes["loop"] = "open, scenario arrival times"
	b.rep.Sizes["cells_per_pass"] = len(s.kinds)
	b.rep.Sizes["device_bytes"] = s.conf.PhysBytes()
	b.rep.Sizes["csv_bytes"] = len(s.csvData)
	b.rep.Sizes["clients"] = 1

	if !b.opt.trace {
		walls, err := b.passes(b.opt.seconds, b.minPasses(), func(p int) error { return s.pass(b, p) })
		if err != nil {
			return err
		}
		s.endToEnd(b, len(walls))
		return nil
	}
	untraced, err := b.tracedPasses(func(p int) error { return s.pass(b, p) })
	if err != nil {
		return err
	}
	s.counts(b, untraced)
	return s.probes(b)
}

// setup writes the CSV trace the study parses: lun1 through trace.Writer.
// It stays in memory: the disk's share of reading a trace file is noise next
// to parsing it.
func (s *coldStudy) setup() error {
	reqs, err := workload.Generate(s.csv, s.conf.LogicalSectors())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, 1)
	for _, r := range reqs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	s.csvData, s.csvReqs = buf.Bytes(), len(reqs)
	return nil
}

// pass runs one cold study per scheme.
func (s *coldStudy) pass(b *bench, pass int) error {
	endPass := b.span("bench.pass", fmt.Sprint("pass", pass))
	defer endPass()
	for ki, kind := range s.kinds {
		if err := s.study(b, pass, ki, kind); err != nil {
			return fmt.Errorf("study %s: %w", kind, err)
		}
	}
	return nil
}

func (s *coldStudy) study(b *bench, pass, ki int, kind sim.SchemeKind) error {
	cell := "study/" + string(kind)
	start := time.Now()
	step := 0
	// timed runs one step inside its span and sample series.
	timed := func(fn func() error) error {
		end := b.span(studySteps[step], cell)
		t0 := time.Now()
		err := fn()
		s.stepS[ki][step] = append(s.stepS[ki][step], time.Since(t0).Seconds())
		end()
		step++
		return err
	}

	var stream, decoded *scenario.Stream
	var blob []byte
	if err := timed(func() (err error) {
		stream, err = s.scen.Generate(s.conf.LogicalSectors())
		return err
	}); err != nil {
		return err
	}
	if err := timed(func() (err error) {
		blob, err = scenario.EncodeStream(stream)
		return err
	}); err != nil {
		return err
	}
	if err := timed(func() (err error) {
		decoded, err = scenario.DecodeStream(blob)
		return err
	}); err != nil {
		return err
	}
	b.check(slices.Equal(decoded.Requests, stream.Requests), "%s: trace-v2 round trip changed the stream", cell)

	var parsed []trace.Request
	if err := timed(func() (err error) {
		parsed, err = trace.ReadAllAuto(bytes.NewReader(s.csvData))
		return err
	}); err != nil {
		return err
	}
	b.check(len(parsed) == s.csvReqs, "%s: parsed %d of %d CSV requests", cell, len(parsed), s.csvReqs)

	var r *sim.Runner
	var snap []byte
	if err := timed(func() (err error) {
		if r, err = sim.NewRunner(kind, s.conf); err != nil {
			return err
		}
		return r.Age(s.aging)
	}); err != nil {
		return err
	}
	if err := timed(func() (err error) {
		snap, err = r.Snapshot()
		return err
	}); err != nil {
		return err
	}
	if err := timed(func() (err error) {
		r, err = sim.Restore(snap)
		return err
	}); err != nil {
		return err
	}

	head := parsed[:int(float64(len(parsed))*s.headFrac)]
	smp, err := obs.NewSampler(50)
	if err != nil {
		return err
	}
	var res *sim.Result
	// A shadow mismatch or audit violation is returned as the replay's
	// error, so err == nil is the "checked replay passes" output check.
	err = timed(func() (err error) {
		if _, err = r.EnableChecks(check.Options{Shadow: true}); err != nil {
			return err
		}
		r.SetSampler(smp)
		res, err = r.Replay(head)
		return err
	})
	b.check(err == nil, "%s: checked replay: %v", cell, err)
	if err != nil {
		return err
	}
	b.check(res.Requests == int64(len(head)), "%s: replayed %d of %d requests", cell, res.Requests, len(head))
	doc, err := resultDoc(res)
	if err != nil {
		return err
	}
	if pass == 0 {
		s.first = append(s.first, res)
		s.firstDoc = append(s.firstDoc, doc)
		b.digest.Write(doc)
		dev := r.Scheme.Device()
		s.clockOps += dev.Sched.Ops() + dev.Bus.Ops()
		s.snapBytes = append(s.snapBytes, len(snap))
		s.checks += r.Checker().SectorChecks()
		s.obsSamples += len(smp.Samples())
		s.streamLen, s.headLen = len(stream.Requests), len(head)
		s.streamMB = float64(len(blob)) / 1e6
		s.hostPages = hostPagesWritten(head, s.conf.SectorsPerPage())
	} else {
		b.check(bytes.Equal(doc, s.firstDoc[ki]), "%s: pass %d result differs from pass 0", cell, pass)
	}
	s.wallS[ki] = append(s.wallS[ki], time.Since(start).Seconds())
	return nil
}

// stepMedian is the per-cell median of one step, summed over schemes.
func (s *coldStudy) stepMedian(name string, passes int) float64 {
	step := slices.Index(studySteps, name)
	total := 0.0
	for ki := range s.kinds {
		total += median(s.stepS[ki][step][:passes])
	}
	return total
}

func (s *coldStudy) endToEnd(b *bench, passes int) {
	b.rep.Sizes["requests_per_scheme_per_pass"] = s.headLen
	b.rep.Sizes["scenario_requests"] = s.streamLen
	var replay [][]float64
	step := slices.Index(studySteps, "sim.replay")
	for ki := range s.kinds {
		replay = append(replay, s.stepS[ki][step])
	}
	b.setHostTimes(replay, s.wallS, float64(s.headLen*len(s.kinds)), passes)
	h := headlineOf(s.kinds, [][]*sim.Result{s.first})
	h.setEndToEnd(b)
}

// counts reports the per-layer metrics of the untraced passes.
func (s *coldStudy) counts(b *bench, untraced int) {
	n := float64(len(s.kinds))
	b.set("scenario.gen_req_per_s", float64(s.streamLen)*n/s.stepMedian("scenario.generate", untraced))
	b.set("scenario.encode_mb_per_s", s.streamMB*n/s.stepMedian("scenario.encode", untraced))
	b.set("scenario.decode_mb_per_s", s.streamMB*n/s.stepMedian("scenario.decode", untraced))
	b.set("trace.parse_mb_per_s", float64(len(s.csvData))/1e6*n/s.stepMedian("trace.parse", untraced))
	step := func(ki int, name string) float64 {
		return median(s.stepS[ki][slices.Index(studySteps, name)][:untraced]) * 1000
	}
	for ki, kind := range s.kinds {
		sfx := "." + schemeSuffix[kind]
		b.set("sim.replay_req_per_s"+sfx, float64(s.headLen)*1000/step(ki, "sim.replay"))
		b.set("sim.age_ms"+sfx, step(ki, "sim.age"))
		b.set("snapshot.encode_ms"+sfx, step(ki, "snapshot.encode"))
		b.set("snapshot.restore_ms"+sfx, step(ki, "snapshot.restore"))
		b.set("snapshot.bytes"+sfx, float64(s.snapBytes[ki]))
		b.set("snapshot.restore_vs_age"+sfx, step(ki, "snapshot.restore")/step(ki, "sim.age"))
	}
	setResultMetrics(b, s.kinds, [][]*sim.Result{s.first}, s.hostPages)
	h := headlineOf(s.kinds, [][]*sim.Result{s.first})
	b.set("sim.paper_gap_pp", h.paperGapPP())
	b.set("clock.ops", float64(s.clockOps))
	b.set("check.sector_checks", float64(s.checks))
	b.set("obs.samples", float64(s.obsSamples))
}

// countingTracer is the cheapest tracer that is not a no-op: it counts the
// events it is handed, so obs.tracer_cost_frac is the cost of the emission
// sites and the interface calls, not of any sink.
type countingTracer struct {
	obs.Nop
	events int64
}

func (t *countingTracer) RequestStart(int64, bool, uint8, int64, int64, int, float64) { t.events++ }
func (t *countingTracer) RequestEnd(int64, bool, float64)                             { t.events++ }
func (t *countingTracer) FlashOp(obs.FlashOpKind, uint8, int, int64, float64, float64) {
	t.events++
}
func (t *countingTracer) CacheAccess(obs.CacheKind, bool, float64) { t.events++ }

// probes measures what turning each observer on costs: the same replay on
// identically restored Across-FTL runners, plain and with one observer.
func (s *coldStudy) probes(b *bench) error {
	stream, err := s.scen.Generate(s.conf.LogicalSectors())
	if err != nil {
		return err
	}
	reqs := stream.Requests[:len(stream.Requests)/5]
	r, err := sim.NewRunner(sim.KindAcross, s.conf)
	if err != nil {
		return err
	}
	if err := r.Age(s.aging); err != nil {
		return err
	}
	snap, err := r.Snapshot()
	if err != nil {
		return err
	}
	replay := func(arm func(*sim.Runner) error) (float64, error) {
		var samples []float64
		for i := 0; i < 3; i++ {
			r, err := sim.Restore(snap)
			if err != nil {
				return 0, err
			}
			if err := arm(r); err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := r.Replay(reqs); err != nil {
				return 0, err
			}
			samples = append(samples, time.Since(t0).Seconds())
		}
		return median(samples), nil
	}
	plain, err := replay(func(*sim.Runner) error { return nil })
	if err != nil {
		return err
	}
	arms := []struct {
		metric string
		arm    func(*sim.Runner) error
	}{
		{"check.on_cost_frac", func(r *sim.Runner) error {
			_, err := r.EnableChecks(check.Options{Shadow: true})
			return err
		}},
		{"obs.sampler_cost_frac", func(r *sim.Runner) error {
			smp, err := obs.NewSampler(50)
			r.SetSampler(smp)
			return err
		}},
		{"obs.tracer_cost_frac", func(r *sim.Runner) error {
			r.SetTracer(&countingTracer{})
			return nil
		}},
	}
	for _, a := range arms {
		with, err := replay(a.arm)
		if err != nil {
			return err
		}
		b.set(a.metric, with/plain-1)
	}
	return nil
}
