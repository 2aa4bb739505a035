package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"across/internal/acrossftl"
	"across/internal/cache"
	"across/internal/ftl"
	"across/internal/sim"
	"across/internal/ssdconf"
	"across/internal/stats"
	"across/internal/trace"
	"across/internal/workload"
)

// schemeSuffix is the metric-name suffix of each scheme.
var schemeSuffix = map[sim.SchemeKind]string{
	sim.KindFTL: "ftl", sim.KindMRSM: "mrsm", sim.KindAcross: "across", sim.KindDFTL: "dftl",
}

// passMetric names each scheme's direct-drive FTL-pass cost metric.
var passMetric = map[sim.SchemeKind]string{
	sim.KindFTL:    "ftl.pass_ns_per_req",
	sim.KindDFTL:   "ftl.dftl_pass_ns_per_req",
	sim.KindAcross: "acrossftl.pass_ns_per_req",
	sim.KindMRSM:   "mrsm.pass_ns_per_req",
}

// replayMatrix is a replay workload: every profile's trace replayed against
// every scheme, each cell forked from that scheme's aged checkpoint so that
// every pass is bit-identical to the first.
type replayMatrix struct {
	conf     ssdconf.Config
	kinds    []sim.SchemeKind
	profiles []workload.Profile
	qd       int // 0 = open loop at trace arrival times
	aging    sim.Aging

	// Products of set-up.
	traces     [][]trace.Request
	hostPages  int64 // pages written by the host per scheme per pass
	requests   int64 // requests per scheme per pass
	snaps      [][]byte
	genSeconds float64
	ageMs      []float64
	encodeMs   []float64

	// Accumulated by passes.
	first    [][]*sim.Result // [trace][kind], pass 0
	firstDoc [][][]byte
	clockOps int64         // scheduler operations of pass 0, whole matrix
	replayS  [][][]float64 // [kind][trace][pass]: seconds inside Replay
	wallS    [][][]float64 // [kind][trace][pass]: seconds of the whole cell
	restoreS [][]float64   // [kind]: seconds of every sim.Restore
	mem      memDelta      // allocations around Replay, untraced passes of a traced run
}

// memDelta accumulates runtime.MemStats deltas around the Replay calls.
type memDelta struct {
	mallocs, bytes uint64
	requests       int64
}

// runVDIReplay is the paper's evaluation: lun1–lun6 × {FTL, MRSM,
// Across-FTL}, open loop at 350 IOPS on the 2 GiB experiment device, every
// cell forked from the §4.1 aged checkpoint. The traces are half the Table 2
// length: long enough that replay, not the fork, is most of a cell, short
// enough that a run holds five passes.
func runVDIReplay(b *bench) error {
	m := &replayMatrix{conf: ssdconf.Experiment(), kinds: sim.Kinds()}
	scale, profiles := 0.5, workload.LunProfiles()
	if b.opt.quick {
		m.conf, scale, profiles = quickDevice(), 0.004, profiles[:2]
	}
	for _, p := range profiles {
		m.profiles = append(m.profiles, p.Scale(scale))
	}
	b.rep.Sizes["loop"] = "open, trace arrival times (350 IOPS)"
	return m.run(b)
}

// runGCChurn drives the same layers through their write/GC path: a
// 95 %-write profile over 90 % of the logical space, closed loop at queue
// depth 8, on a device four times the pages of the experiment device, with
// DFTL added so that mapping-table flash traffic runs too.
func runGCChurn(b *bench) error {
	p, err := workload.LunProfile("lun1")
	if err != nil {
		return err
	}
	p.Name, p.WriteRatio, p.FootprintFrac = "churn", 0.95, 0.9
	m := &replayMatrix{
		conf:     ssdconf.Scaled(16),
		kinds:    []sim.SchemeKind{sim.KindFTL, sim.KindMRSM, sim.KindAcross, sim.KindDFTL},
		profiles: []workload.Profile{p},
		qd:       8,
	}
	if b.opt.quick {
		m.conf = quickDevice()
		m.profiles[0] = p.Scale(0.004)
	}
	b.rep.Sizes["loop"] = "closed, queue depth 8"
	return m.run(b)
}

// quickDevice is the 128 MiB device -quick runs use, so that the smoke test
// spends its few seconds in every code path instead of in restores.
func quickDevice() ssdconf.Config { return ssdconf.Scaled(1024) }

func (m *replayMatrix) run(b *bench) error {
	m.aging = sim.DefaultAging()
	m.aging.Seed += b.opt.seed
	for i := range m.profiles {
		m.profiles[i].Seed += b.opt.seed
	}
	if err := b.setup(m.setup); err != nil {
		return err
	}
	b.rep.Sizes["requests_per_scheme_per_pass"] = m.requests
	b.rep.Sizes["cells_per_pass"] = len(m.traces) * len(m.kinds)
	b.rep.Sizes["device_bytes"] = m.conf.PhysBytes()
	b.rep.Sizes["clients"] = 1

	if !b.opt.trace {
		walls, err := b.passes(b.opt.seconds, b.minPasses(), func(p int) error { return m.pass(b, p) })
		if err != nil {
			return err
		}
		m.endToEnd(b, len(walls))
		return nil
	}
	untraced, err := b.tracedPasses(func(p int) error { return m.pass(b, p) })
	if err != nil {
		return err
	}
	m.counts(b, untraced)
	return m.probes(b)
}

// setup generates the traces and builds, ages and checkpoints one device
// per scheme.
func (m *replayMatrix) setup() error {
	m.traces, m.requests, m.hostPages = nil, 0, 0
	spp := m.conf.SectorsPerPage()
	t0 := time.Now()
	for _, p := range m.profiles {
		reqs, err := workload.Generate(p, m.conf.LogicalSectors())
		if err != nil {
			return err
		}
		m.traces = append(m.traces, reqs)
		m.requests += int64(len(reqs))
	}
	m.genSeconds = time.Since(t0).Seconds()
	for _, reqs := range m.traces {
		m.hostPages += hostPagesWritten(reqs, spp)
	}
	m.snaps, m.ageMs, m.encodeMs = nil, nil, nil
	for _, kind := range m.kinds {
		t0 = time.Now()
		r, err := sim.NewRunner(kind, m.conf)
		if err != nil {
			return err
		}
		if err := r.Age(m.aging); err != nil {
			return err
		}
		m.ageMs = append(m.ageMs, ms(time.Since(t0)))
		t0 = time.Now()
		blob, err := r.Snapshot()
		if err != nil {
			return err
		}
		m.encodeMs = append(m.encodeMs, ms(time.Since(t0)))
		m.snaps = append(m.snaps, blob)
	}
	m.replayS = make([][][]float64, len(m.kinds))
	m.wallS = make([][][]float64, len(m.kinds))
	for ki := range m.kinds {
		m.replayS[ki] = make([][]float64, len(m.traces))
		m.wallS[ki] = make([][]float64, len(m.traces))
	}
	m.restoreS = make([][]float64, len(m.kinds))
	return nil
}

// hostPagesWritten counts the logical pages the trace's writes touch: the
// denominator of write amplification.
func hostPagesWritten(reqs []trace.Request, spp int) int64 {
	var pages int64
	for _, r := range reqs {
		if r.Op == trace.OpWrite {
			pages += r.LastLPN(spp) - r.FirstLPN(spp) + 1
		}
	}
	return pages
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (m *replayMatrix) cell(ti int, kind sim.SchemeKind) string {
	return m.profiles[ti].Name + "/" + string(kind)
}

// pass replays the whole matrix once. Only the Replay calls are inside the
// replay_req_per_s timers; restores and output checks sit between them.
func (m *replayMatrix) pass(b *bench, pass int) error {
	endPass := b.span("bench.pass", fmt.Sprint("pass", pass))
	defer endPass()
	if pass == 0 {
		m.first = make([][]*sim.Result, len(m.traces))
		m.firstDoc = make([][][]byte, len(m.traces))
	}
	for ti, reqs := range m.traces {
		for ki, kind := range m.kinds {
			cell := m.cell(ti, kind)
			cellStart := time.Now()
			end := b.span("snapshot.restore", cell)
			t0 := cellStart
			r, err := sim.Restore(m.snaps[ki])
			m.restoreS[ki] = append(m.restoreS[ki], time.Since(t0).Seconds())
			end()
			if err != nil {
				return fmt.Errorf("%s: restoring the aged checkpoint: %w", cell, err)
			}
			// ReadMemStats stops the world, so only the traced run's
			// untraced passes pay for it.
			measureMem := b.opt.trace && b.spans == nil
			var before runtime.MemStats
			if measureMem {
				runtime.ReadMemStats(&before)
			}
			end = b.span("sim.replay", cell)
			t0 = time.Now()
			res, err := r.ReplayQD(reqs, m.qd)
			m.replayS[ki][ti] = append(m.replayS[ki][ti], time.Since(t0).Seconds())
			end()
			if measureMem {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				m.mem.mallocs += after.Mallocs - before.Mallocs
				m.mem.bytes += after.TotalAlloc - before.TotalAlloc
				m.mem.requests += int64(len(reqs))
			}
			if err != nil {
				return fmt.Errorf("%s: replay: %w", cell, err)
			}
			b.check(res.Requests == int64(len(reqs)), "%s: replayed %d of %d requests", cell, res.Requests, len(reqs))
			doc, err := resultDoc(res)
			if err != nil {
				return fmt.Errorf("%s: encoding the result: %w", cell, err)
			}
			if pass == 0 {
				m.first[ti] = append(m.first[ti], res)
				m.firstDoc[ti] = append(m.firstDoc[ti], doc)
				b.digest.Write(doc)
				dev := r.Scheme.Device()
				m.clockOps += dev.Sched.Ops() + dev.Bus.Ops()
			} else {
				b.check(bytes.Equal(doc, m.firstDoc[ti][ki]), "%s: pass %d result differs from pass 0", cell, pass)
			}
			m.wallS[ki][ti] = append(m.wallS[ki][ti], time.Since(cellStart).Seconds())
		}
	}
	return nil
}

// resultDoc is the canonical encoding of a sim.Result: every field the
// replay produces, in a fixed order (sim.Result itself holds a map and
// histograms that do not marshal). Its bytes are what passes are compared
// by and what results_sha256 digests.
func resultDoc(res *sim.Result) ([]byte, error) {
	quantiles := func(h *stats.Histogram) [4]float64 {
		return [4]float64{h.P50(), h.P95(), h.P99(), h.Max()}
	}
	var buckets [2][3]sim.OpClassMetrics
	for _, op := range []trace.Op{trace.OpRead, trace.OpWrite} {
		for _, class := range []trace.Class{trace.ClassAligned, trace.ClassAcross, trace.ClassUnaligned} {
			buckets[op][class] = *res.Bucket(op, class)
		}
	}
	return json.Marshal(struct {
		Scheme                    string
		Requests, Reads, Writes   int64
		ReadLatSum, WriteLatSum   float64
		ReadQ, WriteQ             [4]float64
		Counters                  ftl.Counters
		Buckets                   [2][3]sim.OpClassMetrics
		TableBytes                int64
		CMT                       cache.CMTStats
		Across                    *acrossftl.Stats
		Wear                      sim.WearSummary
		ChipBusyMs                []float64
		TraceSpanMs, MeasuredSpan float64
		WarmupWrites              int64
	}{
		res.Scheme, res.Requests, res.ReadCount, res.WriteCount,
		res.ReadLatencySum, res.WriteLatencySum,
		quantiles(&res.ReadLat), quantiles(&res.WriteLat),
		res.Counters, buckets, res.TableBytes, res.CMT, res.Across, res.Wear,
		res.ChipBusyMs, res.TraceSpanMs, res.MeasuredSpanMs, res.WarmupWrites,
	})
}

// endToEnd turns the untraced passes into the end-to-end metrics.
func (m *replayMatrix) endToEnd(b *bench, passes int) {
	var replay, wall [][]float64
	for ki := range m.kinds {
		replay = append(replay, m.replayS[ki]...)
		wall = append(wall, m.wallS[ki]...)
	}
	b.setHostTimes(replay, wall, float64(m.requests)*float64(len(m.kinds)), passes)
	h := headlineOf(m.kinds, m.first)
	h.setEndToEnd(b)
}

// headline accumulates, over the traces of a matrix, what the paper's three
// headline claims are computed from. All of it is simulated and repeats
// exactly for a seed.
type headline struct {
	traces                              int
	latRatio                            float64 // Σ over traces of Across-FTL ÷ FTL average write response time
	ftlErases, mrsmErases, acrossErases float64
}

// headlineOf reads a [trace][kind] result matrix; a row cut short by a failed
// cell (already counted as failed) is left out.
func headlineOf(kinds []sim.SchemeKind, results [][]*sim.Result) headline {
	f, m, a := slices.Index(kinds, sim.KindFTL), slices.Index(kinds, sim.KindMRSM), slices.Index(kinds, sim.KindAcross)
	var h headline
	for _, row := range results {
		if len(row) > max(f, m, a) {
			h.add(row[f].AvgWriteLatency(), row[a].AvgWriteLatency(),
				row[f].Counters.Erases, row[m].Counters.Erases, row[a].Counters.Erases)
		}
	}
	return h
}

func (h *headline) add(ftlWriteMs, acrossWriteMs float64, ftlErases, mrsmErases, acrossErases int64) {
	h.traces++
	h.latRatio += acrossWriteMs / ftlWriteMs
	h.ftlErases += float64(ftlErases)
	h.mrsmErases += float64(mrsmErases)
	h.acrossErases += float64(acrossErases)
}

// setEndToEnd reports the two simulated end-to-end metrics: the mean over
// traces of Across-FTL ÷ FTL average write response time (paper 0.911), and
// Across-FTL ÷ FTL erases summed over the matrix (paper 0.867).
func (h *headline) setEndToEnd(b *bench) {
	b.set("across_write_lat_vs_ftl", ratio(h.latRatio, float64(h.traces)))
	b.set("across_erases_vs_ftl", ratio(h.acrossErases, h.ftlErases))
}

// ratio is a ÷ b, and 0 where b is 0 (a -quick run too short to erase a
// block): JSON has no encoding for Inf.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// paperGapPP is the mean absolute gap, in percentage points, between the
// measured and the paper's three headline reductions: write latency vs FTL
// 8.9 %, erases vs FTL 13.3 %, erases vs MRSM 24.6 %.
func (h *headline) paperGapPP() float64 {
	gap := math.Abs(ratio(h.latRatio, float64(h.traces))-0.911) +
		math.Abs(ratio(h.acrossErases, h.ftlErases)-0.867) +
		math.Abs(ratio(h.acrossErases, h.mrsmErases)-0.754)
	return gap * 100 / 3
}

// counts reports the per-layer metrics that need no tracing: work counts
// and simulated latencies from pass 0's results, per-scheme throughput from
// the untraced passes, and what set-up measured.
func (m *replayMatrix) counts(b *bench, untraced int) {
	mem := m.mem
	for ki, kind := range m.kinds {
		sfx := "." + schemeSuffix[kind]
		var cells [][]float64
		for _, samples := range m.replayS[ki] {
			cells = append(cells, samples[:untraced])
		}
		_, inReplay, _ := sumOfQuartiles(cells)
		b.set("sim.replay_req_per_s"+sfx, float64(m.requests)/inReplay)
		b.set("sim.age_ms"+sfx, m.ageMs[ki])
		b.set("snapshot.encode_ms"+sfx, m.encodeMs[ki])
		b.set("snapshot.bytes"+sfx, float64(len(m.snaps[ki])))
		restoreMs := median(m.restoreS[ki]) * 1000
		b.set("snapshot.restore_ms"+sfx, restoreMs)
		b.set("snapshot.restore_vs_age"+sfx, restoreMs/m.ageMs[ki])
	}
	setResultMetrics(b, m.kinds, m.first, m.hostPages)
	h := headlineOf(m.kinds, m.first)
	b.set("sim.paper_gap_pp", h.paperGapPP())
	b.set("clock.ops", float64(m.clockOps))
	b.set("sim.allocs_per_req", float64(mem.mallocs)/float64(mem.requests))
	b.set("sim.bytes_per_req", float64(mem.bytes)/float64(mem.requests))
	b.set("workload.gen_req_per_s", float64(m.requests)/m.genSeconds)
}

// setResultMetrics reports what a [trace][kind] matrix of replay results
// says about each layer: simulated device latencies per scheme, write
// amplification, the AMerge/ARollback census, mapping-cache hit rates and the
// flash operation counts, with the peak chip utilisation that names the load
// regime of every simulated latency.
func setResultMetrics(b *bench, kinds []sim.SchemeKind, results [][]*sim.Result, hostPages int64) {
	var total ftl.Counters
	maxUtil := 0.0
	for ki, kind := range kinds {
		sfx := "." + schemeSuffix[kind]
		var c ftl.Counters
		var readLat, writeLat stats.Histogram
		var cmt cache.CMTStats
		for ti, row := range results {
			if len(row) <= ki {
				continue // the cell failed and was counted as such
			}
			res := row[ki]
			c = addCounters(c, res.Counters)
			readLat.Merge(&res.ReadLat)
			writeLat.Merge(&res.WriteLat)
			cmt.Lookups += res.CMT.Lookups
			cmt.Hits += res.CMT.Hits
			if _, hi := res.UtilisationSpread(); hi > maxUtil {
				maxUtil = hi
			}
			if res.Across != nil {
				addTo(b, "acrossftl.direct_writes", float64(res.Across.DirectWrites))
				addTo(b, "acrossftl.amerge_profitable", float64(res.Across.ProfitableAMerge))
				addTo(b, "acrossftl.amerge_unprofitable", float64(res.Across.UnprofitableAMerge))
				addTo(b, "acrossftl.rollbacks", float64(res.Across.Rollbacks))
			}
			if ti == 0 {
				b.set("mapping.table_bytes"+sfx, float64(res.TableBytes))
			}
		}
		total = addCounters(total, c)
		b.set("sim.dev_write_ms"+sfx, writeLat.Mean())
		b.set("sim.dev_read_ms"+sfx, readLat.Mean())
		b.set("sim.dev_write_p99_ms"+sfx, writeLat.P99())
		b.set("ftl.waf"+sfx, float64(c.FlashWrites())/float64(hostPages))
		if kind == sim.KindMRSM || kind == sim.KindAcross {
			b.set("cache.cmt_hit_rate"+sfx, cmt.HitRatio())
		}
	}
	b.set("ftl.gc_invocations", float64(total.GCInvocations))
	b.set("ftl.gc_writes", float64(total.GCWrites))
	b.set("ftl.map_writes", float64(total.MapWrites))
	b.set("flash.reads", float64(total.FlashReads()))
	b.set("flash.programs", float64(total.FlashWrites()))
	b.set("flash.erases", float64(total.Erases))
	b.set("clock.max_chip_util", maxUtil)
}

func addCounters(a, c ftl.Counters) ftl.Counters {
	a.DataReads += c.DataReads
	a.DataWrites += c.DataWrites
	a.MapReads += c.MapReads
	a.MapWrites += c.MapWrites
	a.GCReads += c.GCReads
	a.GCWrites += c.GCWrites
	a.Erases += c.Erases
	a.DRAMAccesses += c.DRAMAccesses
	a.GCInvocations += c.GCInvocations
	return a
}

// addTo accumulates into a metric across cells.
func addTo(b *bench, name string, v float64) {
	b.set(name, b.rep.Metrics[name].Value+v)
}
