package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"across/internal/flash"
	"across/internal/ftl"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// victimRec is one GC victim selection, in order of occurrence.
type victimRec struct {
	pl  flash.PlaneID
	bid flash.BlockID
}

// replayRecorded runs one full aged replay with the given victim-selection
// implementation (indexed or the retained reference scan), recording every
// GC victim chosen along the way.
func replayRecorded(t *testing.T, kind SchemeKind, reference bool, reqs []trace.Request) (*Result, []victimRec) {
	t.Helper()
	conf := smallConf()
	r, err := NewRunner(kind, conf)
	if err != nil {
		t.Fatal(err)
	}
	al := r.Scheme.(interface{ Allocator() *ftl.Allocator }).Allocator()
	al.SetReferenceVictimScan(reference)
	var seq []victimRec
	al.SetGCVictimHook(func(pl flash.PlaneID, bid flash.BlockID) {
		seq = append(seq, victimRec{pl, bid})
	})
	if err := r.Age(DefaultAging()); err != nil {
		t.Fatal(err)
	}
	res, err := r.Replay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res, seq
}

// TestIndexedVictimMatchesReferenceScan is the behaviour-preservation proof
// for the indexed GC victim selection: for every scheme, an aged replay of a
// seeded workload must choose the exact same victim sequence and produce a
// bit-identical Result whether victims come from the valid-count index or
// from the retained naive scan.
func TestIndexedVictimMatchesReferenceScan(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			resIdx, seqIdx := replayRecorded(t, kind, false, reqs)
			resRef, seqRef := replayRecorded(t, kind, true, reqs)

			if len(seqIdx) == 0 {
				t.Fatal("no GC victims selected: workload too small to exercise victim selection")
			}
			if len(seqIdx) != len(seqRef) {
				t.Fatalf("victim count diverged: indexed %d, reference %d", len(seqIdx), len(seqRef))
			}
			for i := range seqIdx {
				if seqIdx[i] != seqRef[i] {
					t.Fatalf("victim %d diverged: indexed chose plane %d block %d, reference plane %d block %d",
						i, seqIdx[i].pl, seqIdx[i].bid, seqRef[i].pl, seqRef[i].bid)
				}
			}
			if !reflect.DeepEqual(resIdx, resRef) {
				t.Errorf("results diverged between indexed and reference victim selection:\nindexed:   %+v\nreference: %+v",
					resIdx, resRef)
			}
		})
	}
}

// replayUnhinted is ReplayQD without the look-ahead hints: Measured.Drive
// with bare Dispatch as the serve step, between the same set-up and
// collection.
func replayUnhinted(r *Runner, reqs []trace.Request, qd int) (*Result, error) {
	res := r.beginReplay()
	serve := func(_ int, req trace.Request, issue float64) (Served, error) { return r.Dispatch(req, issue) }
	if err := res.Drive(context.Background(), reqs, qd, r.Conf.SectorsPerPage(), serve, r.Scheme.Device().Sched.Horizon); err != nil {
		return nil, err
	}
	r.finishReplay(res)
	return res, nil
}

// agedRunner ages a small device for kind; hints false also removes the
// allocator's GC look-ahead hook first and ages through age's seam with no
// prefetcher, so that neither ageing nor a replay on it hints anything.
func agedRunner(t *testing.T, kind SchemeKind, hints bool) *Runner {
	return agedOn(t, kind, smallConf(), hints)
}

// agedOn is agedRunner on a device of conf.
func agedOn(t *testing.T, kind SchemeKind, conf ssdconf.Config, hints bool) *Runner {
	t.Helper()
	r, err := NewRunner(kind, conf)
	if err != nil {
		t.Fatal(err)
	}
	if hints {
		err = r.Age(DefaultAging())
	} else {
		al, _ := r.Scheme.(allocatorOwner)
		al.Allocator().SetPrefetch(nil)
		err = r.age(context.Background(), DefaultAging(), nil, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// ageGeometry is a named device the ageing tests age.
type ageGeometry struct {
	name string
	conf ssdconf.Config
}

// ageGeometries are smallConf, and a plateau geometry: smallConf with a GC
// threshold above Age's stop point, where garbage collection holds the used
// fraction on its plateau, so that the overwrite phase collects throughout
// and ends on the plateau rule.
func ageGeometries() []ageGeometry {
	plateau := smallConf()
	plateau.GCThreshold = 0.2
	return []ageGeometry{{"small", smallConf()}, {"plateau", plateau}}
}

// TestAgeHintsAreInvisible: ageing's look-ahead hints change nothing it
// leaves behind. For every scheme in the table, on both ageGeometries, a
// device aged through Age, which hints ahead in the untimed loop and in GC,
// and one aged through age's seam with no prefetcher and the GC hook
// removed must snapshot to the same bytes, count the same warm-up writes
// and hold equal runner state.
func TestAgeHintsAreInvisible(t *testing.T) {
	for _, geo := range ageGeometries() {
		for _, e := range schemes {
			t.Run(geo.name+"/"+string(e.kind), func(t *testing.T) {
				bare, hinted := agedOn(t, e.kind, geo.conf, false), agedOn(t, e.kind, geo.conf, true)
				if bare.Scheme.Device().Count.GCInvocations == 0 {
					t.Fatal("ageing never collected garbage")
				}
				if bare.WarmupWrites() != hinted.WarmupWrites() {
					t.Fatalf("warm-up writes: %d unhinted, %d hinted", bare.WarmupWrites(), hinted.WarmupWrites())
				}
				if !bytes.Equal(mustSnapshot(t, bare), mustSnapshot(t, hinted)) {
					t.Fatal("hinted ageing snapshots to different bytes")
				}
				w := stateWalk{t: t, seen: map[[2]uintptr]bool{}}
				w.walk("Runner", reflect.ValueOf(bare), reflect.ValueOf(hinted))
			})
		}
	}
}

// TestAgeStopRuleCountsFreePages pins the input of Age's stop rule: the
// allocator's free-page count equals the free pages of the array's census,
// for every scheme, after every ageing batch,
// after Age, after a replay under GC and on a fork, on both ageGeometries.
// On the plateau one the overwrite phase must end below UsedFrac.
func TestAgeStopRuleCountsFreePages(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	for _, geo := range ageGeometries() {
		for _, e := range schemes {
			t.Run(geo.name+"/"+string(e.kind), func(t *testing.T) {
				r, err := NewRunner(e.kind, geo.conf)
				if err != nil {
					t.Fatal(err)
				}
				agree := func(r *Runner, when string) {
					t.Helper()
					al, _ := r.Scheme.(allocatorOwner)
					free, _, _ := r.Scheme.Device().Array.CountStates()
					if got := al.Allocator().TotalFreePages(); got != free {
						t.Fatalf("%s: the allocator counts %d free pages, the array %d", when, got, free)
					}
				}
				batches := 0
				after := func() {
					batches++
					agree(r, fmt.Sprintf("after ageing batch %d", batches))
				}
				if err := r.age(context.Background(), DefaultAging(), r.hinter(), after); err != nil {
					t.Fatal(err)
				}
				if batches < 2 {
					t.Fatalf("ageing ran %d batches", batches)
				}
				agree(r, "after Age")
				if used, _ := r.AgedState(); geo.name == "plateau" && used >= DefaultAging().UsedFrac {
					t.Fatalf("ageing reached %.3f used: the plateau rule never ran", used)
				}
				cp, err := r.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.ReplayQD(reqs, 8)
				if err != nil {
					t.Fatal(err)
				}
				if res.Counters.GCInvocations == 0 {
					t.Fatal("the replay never collected garbage")
				}
				agree(r, "after a replay")
				agree(mustFork(t, cp), "on a fork")
			})
		}
	}
}

// TestHintsAreInvisible: the look-ahead hints change nothing simulated. For
// every scheme in the table, at QD 0 and 8, two devices are aged alike and
// replay the same trace under GC pressure: one through ReplayQD, which hints
// ahead in the host loop and in GC, and one with the GC hook removed through
// Drive with bare Dispatch, which hints nothing. The Results (measured core,
// counters, census) and the two runners' whole state must be equal.
func TestHintsAreInvisible(t *testing.T) {
	reqs := smallTrace(t, 0.01)
	for _, e := range schemes {
		for _, qd := range []int{0, 8} {
			t.Run(fmt.Sprintf("%s/qd%d", e.kind, qd), func(t *testing.T) {
				bare, hinted := agedRunner(t, e.kind, false), agedRunner(t, e.kind, true)
				want, err := replayUnhinted(bare, reqs, qd)
				if err != nil {
					t.Fatal(err)
				}
				if want.Counters.GCInvocations == 0 {
					t.Fatal("no garbage collection: the device is not under GC pressure")
				}
				got, err := hinted.ReplayQD(reqs, qd)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, want, got, "hinted replay")
				w := stateWalk{t: t, seen: map[[2]uintptr]bool{}}
				w.walk("Runner", reflect.ValueOf(bare), reflect.ValueOf(hinted))
			})
		}
	}
}

// TestHintsAreSafe: a hint trusts no request. For every scheme, hinting
// requests that start below the device, end past it, touch its last sector,
// carry no sectors or run past MRSM's walk bound (hintPages) neither panics
// nor changes any state.
func TestHintsAreSafe(t *testing.T) {
	conf := smallConf()
	last := conf.LogicalSectors() - 1
	reqs := []trace.Request{
		{Op: trace.OpWrite, Offset: -8, Count: 8},
		{Op: trace.OpRead, Offset: -1 << 20, Count: 8},
		{Op: trace.OpWrite, Offset: math.MinInt64, Count: 1},
		{Op: trace.OpWrite, Offset: last - 3, Count: 64},
		{Op: trace.OpRead, Offset: math.MaxInt64 - 4, Count: math.MaxInt32},
		{Op: trace.OpRead, Offset: last, Count: 1},
		{Op: trace.OpWrite, Offset: 0, Count: 0},
		{Op: trace.OpWrite, Offset: last + 1, Count: 0},
		{Op: trace.OpWrite, Offset: 0, Count: int32(64 * conf.SectorsPerPage())},
		{Op: trace.OpRead, Offset: last - int64(8*conf.SectorsPerPage()), Count: int32(64 * conf.SectorsPerPage())},
	}
	for _, e := range schemes {
		t.Run(string(e.kind), func(t *testing.T) {
			cp, err := agedRunner(t, e.kind, true).Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			a, b := mustFork(t, cp), mustFork(t, cp)
			pf, ok := a.Scheme.(prefetcher)
			if !ok {
				t.Fatalf("%s does not hint", e.kind)
			}
			for _, req := range reqs {
				pf.PrefetchMap(req)
				pf.PrefetchData(req)
			}
			w := stateWalk{t: t, seen: map[[2]uintptr]bool{}}
			w.walk("Runner", reflect.ValueOf(a), reflect.ValueOf(b))
		})
	}
}
