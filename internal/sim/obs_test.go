package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/obs"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// replayObserved runs one aged replay with the given tracer and sampler
// installed and returns the Result.
func replayObserved(t *testing.T, kind SchemeKind, reqs []trace.Request, trc obs.Tracer, smp *obs.Sampler) *Result {
	t.Helper()
	r, err := NewRunner(kind, smallConf())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Age(DefaultAging()); err != nil {
		t.Fatal(err)
	}
	r.SetTracer(trc)
	r.SetSampler(smp)
	res, err := r.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTracedReplayResultIdentical is the observation-only proof: attaching
// a tracer (both sink formats) and a sampler must not perturb the
// simulation — the Result must be bit-identical to an untraced replay.
func TestTracedReplayResultIdentical(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			base := replayObserved(t, kind, reqs, nil, nil)

			var jsonl, chrome bytes.Buffer
			smp, err := obs.NewSampler(100)
			if err != nil {
				t.Fatal(err)
			}
			conf := smallConf()
			withJSONL := replayObserved(t, kind, reqs, obs.NewJSONLTracer(&jsonl), smp)
			withChrome := replayObserved(t, kind, reqs, obs.NewChromeTracer(&chrome, conf.Chips()), nil)
			withNop := replayObserved(t, kind, reqs, obs.NopTracer(), nil)

			for name, got := range map[string]*Result{
				"jsonl+sampler": withJSONL, "chrome": withChrome, "nop": withNop,
			} {
				if !reflect.DeepEqual(base, got) {
					t.Errorf("%s: traced replay diverged from untraced:\nuntraced: %+v\ntraced:   %+v", name, base, got)
				}
			}
			if jsonl.Len() == 0 || chrome.Len() == 0 {
				t.Error("tracers attached but produced no output")
			}
			if len(smp.Samples()) == 0 {
				t.Error("sampler attached but took no samples")
			}
		})
	}
}

// TestNopTracerAddsNoAllocations proves the Tracer interface contract: with
// the no-op tracer installed (not merely a nil tracer), a steady-state
// replay performs exactly as many allocations as with tracing absent —
// every event signature is scalar-only, so the interface calls box nothing.
func TestNopTracerAddsNoAllocations(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			measure := func(trc obs.Tracer) float64 {
				r, err := NewRunner(kind, smallConf())
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Age(DefaultAging()); err != nil {
					t.Fatal(err)
				}
				r.SetTracer(trc)
				if _, err := r.Replay(reqs); err != nil { // warm scratch buffers
					t.Fatal(err)
				}
				var replayErr error
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := r.Replay(reqs); err != nil {
						replayErr = err
					}
				})
				if replayErr != nil {
					t.Fatal(replayErr)
				}
				return allocs
			}
			bare := measure(nil)
			nop := measure(obs.NopTracer())
			t.Logf("%s: %.0f allocs untraced, %.0f with no-op tracer", kind, bare, nop)
			if nop > bare {
				t.Errorf("no-op tracer added %.0f allocations per replay (untraced %.0f)", nop-bare, bare)
			}
		})
	}
}

// TestNopTracerOverhead proves the no-op tracer costs nothing by structure,
// not by a wall-clock race between two runs of identical code: SetTracer
// normalises it to nil on the runner, Replay installs that nil on the
// device, and Device.Tracer answers nil, so every emission site takes the
// untraced branch. TestNopTracerAddsNoAllocations covers the heap.
func TestNopTracerOverhead(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	r, err := NewRunner(KindAcross, smallConf())
	if err != nil {
		t.Fatal(err)
	}
	dev := r.Scheme.Device()
	for _, trc := range []obs.Tracer{obs.NopTracer(), obs.Nop{}} {
		// A counting tracer first, so a no-op that failed to replace it
		// would leave a non-nil tracer behind.
		r.SetTracer(&countingTracer{})
		if _, err := r.Replay(reqs); err != nil {
			t.Fatal(err)
		}
		if dev.Tracer() == nil {
			t.Fatal("a counting tracer was not installed on the device")
		}
		r.SetTracer(trc)
		if r.tracer != nil {
			t.Fatalf("SetTracer(%T) did not normalise the no-op tracer to nil — the hot path would pay an interface call per event", trc)
		}
		if _, err := r.Replay(reqs); err != nil {
			t.Fatal(err)
		}
		if got := dev.Tracer(); got != nil {
			t.Fatalf("after SetTracer(%T) the device still emits to %T", trc, got)
		}
		dev.SetTracer(trc)
		if got := dev.Tracer(); got != nil {
			t.Fatalf("Device.SetTracer(%T) left %T installed", trc, got)
		}
	}
}

// countingTracer counts request spans: the cheapest tracer that is not a
// no-op.
type countingTracer struct {
	obs.Nop
	events int
}

func (c *countingTracer) RequestStart(int64, bool, uint8, int64, int64, int, float64) { c.events++ }

// sliceScan is the reference in-flight set: the completions of the
// requests served, rescanned at every issue.
type sliceScan []float64

// retire drops every completion at or before t.
func (s *sliceScan) retire(t float64) {
	kept := (*s)[:0]
	for _, c := range *s {
		if c > t {
			kept = append(kept, c)
		}
	}
	*s = kept
}

// TestInflightDepthMatchesSliceScan: the lazy count reports, whenever it is
// asked, the depth the slice rescan reports after retiring at every issue.
// The stream's service is far slower than its arrivals, so the backlog
// builds into the hundreds; every fifth arrival lands exactly on the
// earliest outstanding completion, one in eight goes backwards by up to
// 50 ms, and under a queue depth a full queue defers the issue to the
// earliest completion, as Drive does. The count is asked at every issue,
// at random ones and at none before the queue drains.
func TestInflightDepthMatchesSliceScan(t *testing.T) {
	for _, qd := range []int{0, 4, 32} {
		for _, ask := range []float64{1, 0.1, 0} {
			t.Run(fmt.Sprintf("qd%d/ask%.1f", qd, ask), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(qd) + 1))
				f := inflight{limit: windowMin}
				var scan sliceScan
				now, last, deepest := 0.0, 0.0, 0
				for i := 0; i < 20000; i++ {
					now += rng.ExpFloat64()
					issue := now
					if rng.Intn(8) == 0 {
						issue -= 50 * rng.Float64()
					}
					if i%5 == 0 && len(scan) > 0 {
						issue = max(issue, slices.Min(scan))
					}
					scan.retire(issue)
					for qd > 0 && len(scan) >= qd {
						issue = slices.Min(scan)
						scan.retire(issue)
					}
					if rng.Float64() < ask {
						if got := f.depth(issue); got != len(scan) {
							t.Fatalf("request %d issued at %.3f: depth %d, slice scan %d", i, issue, got, len(scan))
						}
					}
					deepest = max(deepest, len(scan))
					done := issue + 400*rng.Float64()
					f.add(issue, done)
					scan = append(scan, done)
					last = max(last, done)
				}
				if qd == 0 && deepest < 100 {
					t.Fatalf("backlog peaked at %d: the stream never built a queue", deepest)
				}
				if got := f.depth(last); got != 0 {
					t.Fatalf("after the last completion: depth %d", got)
				}
			})
		}
	}
}

// TestInflightWindowBounded: when no sample asks for a depth — a sampling
// interval longer than the trace — the window still compacts, so the set
// holds at most the backlog plus one window, whether the backlog stays
// shallow or grows with the stream.
func TestInflightWindowBounded(t *testing.T) {
	for _, service := range []float64{3, 1.5} { // latest completion in ms after a 1 ms mean gap
		rng := rand.New(rand.NewSource(7))
		f := inflight{limit: windowMin}
		var scan sliceScan
		now, longest, deepest := 0.0, 0, 0
		for i := 0; i < 200000; i++ {
			now += 2 * rng.Float64()
			scan.retire(now)
			deepest = max(deepest, len(scan))
			done := now + service*rng.Float64()
			if service < 2 && i%1000 == 0 {
				done += 1e9 // a stuck request every thousand: the backlog grows
			}
			f.add(now, done)
			scan = append(scan, done)
			longest = max(longest, len(f.q))
		}
		if bound := deepest + 1 + max(windowMin, deepest+1); longest > bound {
			t.Errorf("service %.1f ms: the set held %d requests, backlog peaked at %d, bound %d",
				service, longest, deepest, bound)
		}
		t.Logf("service %.1f ms: set peaked at %d entries, backlog at %d", service, longest, deepest)
		if got := f.depth(now); got != len(scan) {
			t.Errorf("service %.1f ms: depth %d at the end, slice scan %d", service, got, len(scan))
		}
	}
}

// TestSamplerFinalSampleMatchesResult locks the sampler's contract: the
// closing sample's cumulative fields reproduce the end-of-run Result
// aggregates exactly (they read the same counters at the same instant).
func TestSamplerFinalSampleMatchesResult(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			smp, err := obs.NewSampler(50)
			if err != nil {
				t.Fatal(err)
			}
			res := replayObserved(t, kind, reqs, nil, smp)
			samples := smp.Samples()
			if len(samples) < 2 {
				t.Fatalf("only %d samples from a %d-request replay", len(samples), len(reqs))
			}
			last := samples[len(samples)-1]
			if last.CumRequests != res.Requests {
				t.Errorf("final sample requests %d, result %d", last.CumRequests, res.Requests)
			}
			if last.CumReads != res.ReadCount || last.CumWrites != res.WriteCount {
				t.Errorf("final sample reads/writes %d/%d, result %d/%d",
					last.CumReads, last.CumWrites, res.ReadCount, res.WriteCount)
			}
			if last.CumReadLatSumMs != res.ReadLatencySum || last.CumWriteLatSumMs != res.WriteLatencySum {
				t.Errorf("final sample latency sums %v/%v, result %v/%v",
					last.CumReadLatSumMs, last.CumWriteLatSumMs, res.ReadLatencySum, res.WriteLatencySum)
			}
			if last.CumFlashReads != res.Counters.FlashReads() || last.CumFlashWrites != res.Counters.FlashWrites() {
				t.Errorf("final sample flash ops %d/%d, result %d/%d",
					last.CumFlashReads, last.CumFlashWrites, res.Counters.FlashReads(), res.Counters.FlashWrites())
			}
			if last.CumErases != res.Counters.Erases {
				t.Errorf("final sample erases %d, result %d", last.CumErases, res.Counters.Erases)
			}
			if last.CumGCInvocations != res.Counters.GCInvocations {
				t.Errorf("final sample GC invocations %d, result %d", last.CumGCInvocations, res.Counters.GCInvocations)
			}
			if got, want := last.ChipBusyMs, res.ChipBusyMs; !reflect.DeepEqual(got, want) {
				t.Errorf("final sample chip busy %v, result %v", got, want)
			}
			if last.QueueDepth != 0 {
				t.Errorf("queue depth %d at the idle horizon, want 0", last.QueueDepth)
			}
			var sum int64
			for _, s := range samples {
				sum += s.Requests
			}
			if sum != res.Requests {
				t.Errorf("window request counts sum to %d, result %d", sum, res.Requests)
			}
		})
	}
}

// TestTracedReplayJSONLParses decodes every line a traced replay writes.
func TestTracedReplayJSONLParses(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	var buf bytes.Buffer
	trc := obs.NewJSONLTracer(&buf)
	replayObserved(t, KindAcross, reqs, trc, nil)
	if err := trc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	kinds := map[string]int{}
	for dec.More() {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("undecodable event line: %v", err)
		}
		kinds[ev.Ev]++
	}
	for _, want := range []string{"req_start", "req_end", "flash", "gc_victim", "gc", "across", "cache"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events in an aged Across-FTL replay (got %v)", want, kinds)
		}
	}
	if kinds["req_start"] != len(reqs) || kinds["req_end"] != len(reqs) {
		t.Errorf("request span count %d/%d, want %d each", kinds["req_start"], kinds["req_end"], len(reqs))
	}
}

// TestChipUtilisationBurstArrival is the regression test for the
// utilisation denominator: a burst trace (all arrivals in the first
// millisecond, service stretching far past it) used to report busy
// fractions far above 1.0 because the arrival span was the denominator.
func TestChipUtilisationBurstArrival(t *testing.T) {
	conf := smallConf()
	spp := conf.SectorsPerPage()
	var reqs []trace.Request
	for i := 0; i < 256; i++ {
		reqs = append(reqs, trace.Request{
			Time:   float64(i) * 0.001, // all within 0.26 ms
			Op:     trace.OpWrite,
			Offset: int64(i*spp) % conf.LogicalSectors(),
			Count:  int32(spp),
		})
	}
	r, err := NewRunner(KindFTL, conf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredSpanMs <= res.TraceSpanMs {
		t.Fatalf("measured span %v not beyond the arrival span %v: burst service did not extend past arrivals",
			res.MeasuredSpanMs, res.TraceSpanMs)
	}
	for i, u := range res.ChipUtilisation() {
		if u > 1.0 {
			t.Errorf("chip %d utilisation %.3f exceeds 1.0 — denominator regressed to the arrival span", i, u)
		}
	}
	// The old denominator reproduces the bug, proving the trace exercises it.
	for _, b := range res.ChipBusyMs {
		if b/res.TraceSpanMs > 1.0 {
			return
		}
	}
	t.Error("trace no longer reproduces >1.0 utilisation under the old arrival-span denominator")
}

// debtCheck is a tracer that, at the end of every request, compares the
// allocator's running GC-debt total with the sum over its planes.
type debtCheck struct {
	obs.Nop
	t         *testing.T
	al        *ftl.Allocator
	planes    int
	threshold int64
}

func (d *debtCheck) RequestEnd(id int64, _ bool, _ float64) {
	var sum int64
	for pl := 0; pl < d.planes; pl++ {
		sum += max(d.threshold-d.al.FreePages(flash.PlaneID(pl)), 0)
	}
	if got := d.al.GCDebtPages(); got != sum {
		d.t.Fatalf("after request %d: running GC debt %d, plane sum %d", id, got, sum)
	}
}

// replayCheckingDebt replays reqs on run, sampled, with a debtCheck tracer.
func replayCheckingDebt(t *testing.T, name string, run *Runner, reqs []trace.Request) {
	t.Helper()
	al, _ := run.Scheme.(allocatorOwner)
	geo := run.Scheme.Device().Array.Geo
	pagesPlane := int64(geo.BlocksPerPlane) * int64(geo.PagesPerBlock)
	d := &debtCheck{t: t, al: al.Allocator(), planes: geo.Planes,
		threshold: int64(float64(pagesPlane) * run.Conf.GCThreshold)}
	smp, err := obs.NewSampler(5)
	if err != nil {
		t.Fatal(err)
	}
	run.SetSampler(smp)
	run.SetTracer(d)
	if _, err := run.ReplayQD(reqs, 0); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if run.Scheme.Device().Count.GCInvocations == 0 {
		t.Fatalf("%s: the replay never collected", name)
	}
}

// TestGCDebtRunningTotal: the allocator's GC-debt total, summed once and
// then kept by every page allocation and erase, equals the plane sum after
// every request of a sampled replay, on a runner forked from an aged
// checkpoint and on one recovered after a crash. Collection takes a plane
// below its threshold and back within a request, so the replay must collect.
// One more case erases a block that leaves its plane still below threshold,
// where an erase must lower the debt by the block's pages and no more.
func TestGCDebtRunningTotal(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	for _, e := range schemes {
		t.Run(string(e.kind), func(t *testing.T) {
			r, err := NewRunner(e.kind, smallConf())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Age(DefaultAging()); err != nil {
				t.Fatal(err)
			}
			cp, err := r.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			fork, err := cp.Fork()
			if err != nil {
				t.Fatal(err)
			}
			runners := map[string]*Runner{"fork": fork}
			if e.recover != nil {
				if runners["recovered"], err = Recover(r); err != nil {
					t.Fatal(err)
				}
			}
			for name, run := range runners {
				replayCheckingDebt(t, name, run, reqs)
			}
		})
	}

	// One plane of 16 blocks of 8 pages, its threshold half of them. Ten
	// blocks of distinct pages leave no victim, so collection gives up and
	// allocation goes on to two blocks below threshold. Rewriting page 0
	// then gives block 0 an invalid page; the next write collects it, and
	// its erase leaves the plane a block below threshold.
	t.Run("erase below threshold", func(t *testing.T) {
		conf := ssdconf.Table1()
		conf.Channels, conf.ChipsPerChan, conf.DiesPerChip, conf.PlanesPerDie = 1, 1, 1, 1
		conf.BlocksPerPlane, conf.PagesPerBlock = 16, 8
		conf.GCThreshold = 0.5
		run, err := NewRunner(KindFTL, conf)
		if err != nil {
			t.Fatal(err)
		}
		spp := int64(conf.SectorsPerPage())
		lpns := make([]int64, 80, 82)
		for i := range lpns {
			lpns[i] = int64(i)
		}
		var reqs []trace.Request
		for _, lpn := range append(lpns, 0, 1) {
			reqs = append(reqs, trace.Request{Time: float64(len(reqs)), Op: trace.OpWrite, Offset: lpn * spp, Count: int32(spp)})
		}
		replayCheckingDebt(t, "fresh", run, reqs)
		al, _ := run.Scheme.(allocatorOwner)
		if debt := al.Allocator().GCDebtPages(); run.Scheme.Device().Count.Erases == 0 || debt <= 0 {
			t.Fatalf("%d erases, final debt %d: no erase left the plane below threshold", run.Scheme.Device().Count.Erases, debt)
		}
	})
}
