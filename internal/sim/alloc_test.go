package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"across/internal/acrossftl"
	"across/internal/obs"
	"across/internal/ssdconf"
	"across/internal/workload"
)

// TestSteadyStateReplayAllocations locks in the replay loop's allocation
// behaviour: after one warm-up replay has grown every scratch buffer, a
// further replay of the same trace must stay under a small per-request
// allocation budget AND under an absolute per-replay ceiling. All four
// schemes are allocation-free per request: only the per-replay Result and
// its metric buckets remain. MRSM reached parity once its packed-page
// census, node-dirty ledger and pack-buffer index moved off maps (map
// delete/insert churn allocated overflow buckets indefinitely) and the LRU
// started recycling evicted nodes.
func TestSteadyStateReplayAllocations(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	const maxPerReplay = 32
	for _, tc := range []struct {
		kind      SchemeKind
		maxPerReq float64
	}{
		{KindFTL, 0.05},
		{KindAcross, 0.05},
		{KindMRSM, 0.05},
		{KindDFTL, 0.05},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			r, err := NewRunner(tc.kind, smallConf())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Age(DefaultAging()); err != nil {
				t.Fatal(err)
			}
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
			perReq := allocs / float64(len(reqs))
			t.Logf("%s: %.0f allocs per replay of %d requests (%.4f/request)",
				tc.kind, allocs, len(reqs), perReq)
			if perReq > tc.maxPerReq {
				t.Errorf("steady-state replay allocates %.4f/request, budget %.4f — hot path regressed",
					perReq, tc.maxPerReq)
			}
			if allocs > maxPerReplay {
				t.Errorf("steady-state replay allocates %.0f objects, ceiling %d — hot path regressed",
					allocs, maxPerReplay)
			}
		})
	}
}

// TestSampledReplayAllocations bounds what a sampler adds to a steady-state
// replay's allocations: the sampler and the feed it reads through, one slab
// of busy columns per slabSamples samples, and the series growing as append
// grows it — nothing per request and nothing else per sample. The replay
// is sampled on a 1 ms grid, so it takes thousands of samples.
func TestSampledReplayAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are the race detector's under -race")
	}
	reqs := smallTrace(t, 0.01)
	for _, e := range schemes {
		kind := e.kind
		t.Run(string(kind), func(t *testing.T) {
			r, err := NewRunner(kind, smallConf())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Age(DefaultAging()); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Replay(reqs); err != nil { // warm scratch buffers
				t.Fatal(err)
			}
			var (
				replayErr error
				samples   int
			)
			measure := func(sampled bool) float64 {
				return testing.AllocsPerRun(3, func() {
					var smp *obs.Sampler
					if sampled {
						if smp, replayErr = obs.NewSampler(1); replayErr != nil {
							return
						}
					}
					r.SetSampler(smp)
					if _, err := r.Replay(reqs); err != nil {
						replayErr = err
					}
					if smp != nil {
						samples = len(smp.Samples())
					}
				})
			}
			plain := measure(false)
			sampled := measure(true)
			if replayErr != nil {
				t.Fatal(replayErr)
			}
			// The slabs; the series' growth, counted by making the same
			// appends; and the sampler, the feed, its fill func, its
			// in-flight window and the previous sample's busy column.
			var series []obs.Sample
			grows := 0
			for range samples {
				if len(series) == cap(series) {
					grows++
				}
				series = append(series, obs.Sample{})
			}
			bound := float64(samples/slabSamples+1+grows) + 5
			t.Logf("%s: %d samples, %.0f allocs sampled, %.0f plain, bound %.0f over plain",
				kind, samples, sampled, plain, bound)
			if samples < 1000 {
				t.Fatalf("only %d samples: the replay does not exercise the slab", samples)
			}
			if sampled-plain > bound {
				t.Errorf("a sampled replay allocates %.0f more than a plain one, bound %.0f for %d samples",
					sampled-plain, bound, samples)
			}
		})
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which heap sizes measure the detector's shadow memory, not the simulator.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// liveHeap returns the bytes of live heap objects after two collections:
// what a sync.Pool parked or a finalizer guards survives the first, and
// would read as memory the code between two probes had freed.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRunnerHeapBudget locks the host footprint of a runner in bytes per
// physical page on the gc-churn device (ssdconf.Scaled(16), 1 Mi pages), so
// a later change cannot silently re-widen a per-page column (DESIGN §7).
// With 25-byte page records, a 16-byte PMT entry and 64-bit MRSM tables the
// same probe read 39.5 / 39.5 / 39.5 / 103.7 (FTL / DFTL / Across-FTL /
// MRSM); the packed tables read 9.0 / 9.0 / 9.0 / 40.2, and Across-FTL 20.6
// once a replay has created areas and so its lazy tag-aux and AIdx columns.
// A runner forked from a checkpoint of each state is held to the same
// budget: CopyState leaves a lazy column nil where the template's is.
func TestRunnerHeapBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	conf := ssdconf.Scaled(16)
	// perPage is the live heap a runner added, per physical page; the runner
	// is passed in so that it is still reachable when the heap is read.
	perPage := func(r *Runner, before uint64) float64 {
		defer runtime.KeepAlive(r)
		return (float64(liveHeap()) - float64(before)) / float64(conf.PagesTotal())
	}
	forkPerPage := func(r *Runner) float64 {
		blob, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := OpenCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		defer runtime.KeepAlive(cp)
		before := liveHeap()
		f, err := cp.Fork()
		if err != nil {
			t.Fatal(err)
		}
		return perPage(f, before)
	}
	for _, tc := range []struct {
		kind   SchemeKind
		budget float64
	}{
		{KindFTL, 12}, {KindDFTL, 12}, {KindAcross, 12}, {KindMRSM, 46},
	} {
		before := liveHeap()
		r, err := NewRunner(tc.kind, conf)
		if err != nil {
			t.Fatal(err)
		}
		got := perPage(r, before)
		t.Logf("%s: %.1f B/page at construction", tc.kind, got)
		if got > tc.budget {
			t.Errorf("%s: runner holds %.1f B/page, budget %.0f — a per-page table was widened", tc.kind, got, tc.budget)
		}
		if got = forkPerPage(r); got > tc.budget {
			t.Errorf("%s: a fork of that runner holds %.1f B/page, budget %.0f", tc.kind, got, tc.budget)
		}
		if tc.kind != KindAcross {
			continue
		}
		reqs, err := workload.Generate(workload.LunProfiles()[0].Scale(0.01), conf.LogicalSectors())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Replay(reqs); err != nil {
			t.Fatal(err)
		}
		if r.Scheme.(*acrossftl.Scheme).Stats().DirectWrites == 0 {
			t.Fatal("the replay created no across-page area: the lazy columns were not exercised")
		}
		got = perPage(r, before)
		t.Logf("%s: %.1f B/page after creating across-page areas", tc.kind, got)
		if got > 24 {
			t.Errorf("%s: runner holds %.1f B/page with its lazy columns, budget 24", tc.kind, got)
		}
		if got = forkPerPage(r); got > 24 {
			t.Errorf("%s: a fork of that runner holds %.1f B/page, budget 24", tc.kind, got)
		}
	}
}

// TestCheckpointRetainsNoBody holds an open checkpoint to what it says it
// holds: one template, Bytes() of it, and neither the blob's inflated body
// (three times that) nor any runner it has forked.
func TestCheckpointRetainsNoBody(t *testing.T) {
	if raceEnabled() {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	for _, kind := range Kinds() {
		r, err := NewRunner(kind, ssdconf.Experiment())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Age(DefaultAging()); err != nil {
			t.Fatal(err)
		}
		blob, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r = nil
		before := liveHeap()
		cp, err := OpenCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cp.Fork(); err != nil {
			t.Fatal(err)
		}
		retained := float64(liveHeap()) - float64(before)
		runtime.KeepAlive(cp)
		runtime.KeepAlive(blob) // counted in before, so it must be in after
		t.Logf("%s: an open checkpoint retains %.0f bytes, Bytes() %d", kind, retained, cp.Bytes())
		if retained > 1.25*float64(cp.Bytes()) {
			t.Errorf("%s: an open checkpoint retains %.0f bytes, %.2fx its Bytes() of %d (budget 1.25x)",
				kind, retained, retained/float64(cp.Bytes()), cp.Bytes())
		}
		if float64(cp.Bytes()) > retained {
			t.Errorf("%s: Bytes() reports %d, more than the %.0f bytes the checkpoint holds", kind, cp.Bytes(), retained)
		}
	}
}
