package ftl

import (
	"math/rand"
	"testing"

	"across/internal/flash"
	"across/internal/ssdconf"
	"across/internal/trace"
)

func TestTransferTimeExtendsOps(t *testing.T) {
	c := ssdconf.Tiny()
	c.TransferTime = 0.5
	s, err := NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 0, Count: 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := c.CacheAccess + c.ProgramTime + c.TransferTime
	if done < want-1e-9 || done > want+1e-9 {
		t.Fatalf("write completion = %v, want %v (program + transfer)", done, want)
	}
	rdone, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 0, Count: 16}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want = 100 + c.CacheAccess + c.ReadTime + c.TransferTime
	if rdone < want-1e-9 || rdone > want+1e-9 {
		t.Fatalf("read completion = %v, want %v", rdone, want)
	}
}

func TestNegativeTransferTimeRejected(t *testing.T) {
	c := ssdconf.Tiny()
	c.TransferTime = -1
	if _, err := NewBaseline(&c); err == nil {
		t.Fatal("negative TransferTime accepted")
	}
}

func TestProgramScaledValidatesFraction(t *testing.T) {
	c := ssdconf.Tiny()
	dev, err := NewDevice(&c)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0, -0.5, 1.5} {
		if _, err := dev.ProgramScaled(0, flash.Tag{}, 0, OpData, frac); err == nil {
			t.Errorf("fraction %v accepted", frac)
		}
	}
	done, err := dev.ProgramScaled(0, flash.Tag{Kind: TagData, Key: 0}, 0, OpData, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	want := (c.ProgramTime + c.TransferTime) * 0.25
	if done < want-1e-9 || done > want+1e-9 {
		t.Fatalf("scaled program = %v, want %v", done, want)
	}
}

// churn drives a baseline scheme with page-aligned overwrites until GC has
// cycled a few times.
func churn(t *testing.T, s *Baseline, c *ssdconf.Config, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pages := c.LogicalSectors() / int64(c.SectorsPerPage()) / 2
	for i := 0; i < n; i++ {
		lpn := rng.Int63n(pages)
		r := trace.Request{Op: trace.OpWrite, Offset: lpn * int64(c.SectorsPerPage()), Count: int32(c.SectorsPerPage())}
		if _, err := s.Write(r, float64(i)); err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
	}
}

func TestWearStatsTracksSpread(t *testing.T) {
	c := ssdconf.Tiny()
	s, err := NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	mean, sd, lo, hi := s.Dev.Array.WearStats()
	if mean != 0 || sd != 0 || lo != 0 || hi != 0 {
		t.Fatal("fresh device has wear")
	}
	churn(t, s, &c, 5000, 7)
	mean, sd, lo, hi = s.Dev.Array.WearStats()
	if mean <= 0 || hi <= 0 {
		t.Fatalf("no wear recorded after churn: mean=%v hi=%d", mean, hi)
	}
	if lo > hi || float64(lo) > mean || mean > float64(hi) {
		t.Fatalf("wear ordering broken: lo=%d mean=%v hi=%d", lo, mean, hi)
	}
	if sd < 0 {
		t.Fatalf("negative stddev %v", sd)
	}
	// Greedy GC without wear levelling leaves a spread.
	if hi == lo {
		t.Log("note: perfectly even wear (unusual but not wrong)")
	}
}

// TestAllocatorAccountingInvariant cross-checks the allocator's incremental
// free-page counters against a full device recount under churn.
func TestAllocatorAccountingInvariant(t *testing.T) {
	c := ssdconf.Tiny()
	s, err := NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	pages := c.LogicalSectors() / 16 / 2
	for i := 0; i < 3000; i++ {
		lpn := rng.Int63n(pages)
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: lpn * 16, Count: 16}, float64(i)); err != nil {
			t.Fatal(err)
		}
		if i%251 == 0 {
			free, _, _ := s.Dev.Array.CountStates()
			if got := s.Al.TotalFreePages(); got != free {
				t.Fatalf("step %d: allocator free=%d, device recount=%d", i, got, free)
			}
		}
	}
}

func TestChannelBusContention(t *testing.T) {
	// Two chips on one channel: with TransferTime modelled, two
	// simultaneous programs to different chips serialise their transfers
	// on the shared bus, but the cell programs overlap.
	c := ssdconf.Tiny()
	c.Channels = 1
	c.ChipsPerChan = 2
	c.TransferTime = 0.5
	s, err := NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	// A 2-page aligned write stripes across the two chips.
	done, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 0, Count: 32}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// First transfer [0, 0.5), program [0.5, 2.5); second transfer queues
	// on the bus [0.5, 1.0), program [1.0, 3.0). Plus 2 cache accesses.
	want := 3.0 + 2*c.CacheAccess
	if done < want-1e-9 || done > want+1e-9 {
		t.Fatalf("completion = %v, want %v (bus-serialised transfers)", done, want)
	}
	// Same write with two channels: transfers no longer contend.
	c2 := ssdconf.Tiny()
	c2.TransferTime = 0.5 // 2 channels x 1 chip
	s2, err := NewBaseline(&c2)
	if err != nil {
		t.Fatal(err)
	}
	done2, err := s2.Write(trace.Request{Op: trace.OpWrite, Offset: 0, Count: 32}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want2 := 2.5 + 2*c2.CacheAccess
	if done2 < want2-1e-9 || done2 > want2+1e-9 {
		t.Fatalf("two-channel completion = %v, want %v", done2, want2)
	}
}

func TestReadTransferFollowsCellRead(t *testing.T) {
	c := ssdconf.Tiny()
	c.TransferTime = 0.25
	s, err := NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 0, Count: 16}, 0); err != nil {
		t.Fatal(err)
	}
	done, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 0, Count: 16}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 + c.CacheAccess + c.ReadTime + c.TransferTime
	if done < want-1e-9 || done > want+1e-9 {
		t.Fatalf("read completion = %v, want %v", done, want)
	}
}

// TestGCPrefetchStaysInVictimList: collect hints each victim's valid pages
// gcAhead ahead of the one it moves, in order, with the tag the page holds,
// and never a page outside the victim's list or past its end.
func TestGCPrefetchStaysInVictimList(t *testing.T) {
	// Blocks of 64 pages, so that a victim holds more than gcAhead.
	c := ssdconf.Tiny()
	c.PagesPerBlock = 64
	s, err := NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []flash.PPN
	s.Al.SetGCVictimHook(func(_ flash.PlaneID, victim flash.BlockID) {
		if len(got) != len(want) {
			t.Fatalf("hinted %v for the last victim, want %v", got, want)
		}
		got = got[:0]
		want = append(want[:0], s.Dev.Array.ValidPages(victim)...)
		if len(want) > gcAhead {
			want = want[gcAhead:]
		} else {
			want = want[:0]
		}
	})
	hinted := 0
	s.Al.SetPrefetch(func(tag flash.Tag, ppn flash.PPN) {
		if i := len(got); i >= len(want) || want[i] != ppn {
			t.Fatalf("hint %d of a victim is ppn %d, want the victim's valid pages from the %dth: %v", i, ppn, gcAhead, want)
		}
		if tag != s.Dev.Array.TagOf(ppn) || tag.Kind != TagData {
			t.Fatalf("ppn %d hinted with tag %+v, holds %+v", ppn, tag, s.Dev.Array.TagOf(ppn))
		}
		got = append(got, ppn)
		hinted++
	})
	rng := rand.New(rand.NewSource(5))
	pages := c.LogicalSectors() / 16 * 3 / 4
	for i := 0; i < 20000; i++ {
		lpn := rng.Int63n(pages)
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: lpn * 16, Count: 16}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Dev.Count.GCInvocations == 0 || hinted == 0 {
		t.Fatalf("%d collections hinted %d pages: churn too light to test the hook", s.Dev.Count.GCInvocations, hinted)
	}
}
