package acrossftl

import (
	"math/rand"
	"testing"

	"across/internal/ftl"
	"across/internal/ssdconf"
	"across/internal/trace"
)

func TestPackUnpackAux(t *testing.T) {
	for _, tc := range []struct {
		lpn       int64
		off, size int32
	}{
		{0, 0, 1}, {128, 8, 12}, {1 << 30, 15, 16}, {42, 1, 2},
	} {
		lpn, off, size := unpackAux(packAux(tc.lpn, tc.off, tc.size))
		if lpn != tc.lpn || off != tc.off || size != tc.size {
			t.Errorf("round trip (%d,%d,%d) -> (%d,%d,%d)", tc.lpn, tc.off, tc.size, lpn, off, size)
		}
	}
}

// crashAndRecover simulates power loss: the in-DRAM state of the original
// scheme is discarded and a fresh scheme is mounted from the flash array
// alone.
func crashAndRecover(t *testing.T, s *Scheme) *Scheme {
	t.Helper()
	rec, err := Recover(s.Dev)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return rec
}

func TestRecoveryRebuildsMappingExactly(t *testing.T) {
	s, c := tinyScheme(t)
	rng := rand.New(rand.NewSource(31))
	region := c.LogicalSectors() / 2
	for op := 0; op < 1500; op++ {
		off := rng.Int63n(region - 40)
		count := rng.Int31n(30) + 1
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: off, Count: count}, float64(op)); err != nil {
			t.Fatal(err)
		}
	}
	if s.AMT.Live() == 0 {
		t.Fatal("workload built no areas; recovery test is vacuous")
	}

	// Snapshot the pre-crash mapping.
	type areaRec struct {
		lpn       int64
		off, size int32
	}
	preAreas := map[int32]areaRec{}
	prePPN := map[int64]int64{}
	for lpn := int64(0); lpn < s.PMT.Len(); lpn++ {
		e := s.PMT.Get(lpn)
		if e.PPN >= 0 {
			prePPN[lpn] = int64(e.PPN)
		}
		if e.AIdx >= 0 {
			a := s.AMT.Get(e.AIdx)
			preAreas[e.AIdx] = areaRec{a.LPN, a.Off, a.Size}
		}
	}

	rec := crashAndRecover(t, s)

	// Every normal mapping and every area is reconstructed identically.
	for lpn := int64(0); lpn < rec.PMT.Len(); lpn++ {
		e := rec.PMT.Get(lpn)
		if want, ok := prePPN[lpn]; ok {
			if int64(e.PPN) != want {
				t.Fatalf("lpn %d recovered PPN %d, want %d", lpn, e.PPN, want)
			}
		} else if e.PPN >= 0 {
			t.Fatalf("lpn %d gained a mapping in recovery", lpn)
		}
	}
	if rec.AMT.Live() != len(preAreas) {
		t.Fatalf("recovered %d areas, want %d", rec.AMT.Live(), len(preAreas))
	}
	for idx, want := range preAreas {
		if !rec.AMT.InUse(idx) {
			t.Fatalf("area %d lost in recovery", idx)
		}
		a := rec.AMT.Get(idx)
		if a.LPN != want.lpn || a.Off != want.off || a.Size != want.size {
			t.Fatalf("area %d recovered as (%d,%d,%d), want (%d,%d,%d)",
				idx, a.LPN, a.Off, a.Size, want.lpn, want.off, want.size)
		}
	}
}

func TestRecoveredSchemeKeepsWorking(t *testing.T) {
	s, c := tinyScheme(t)
	rng := rand.New(rand.NewSource(33))
	region := c.LogicalSectors() / 2
	for op := 0; op < 1000; op++ {
		off := rng.Int63n(region - 40)
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: off, Count: rng.Int31n(30) + 1}, float64(op)); err != nil {
			t.Fatal(err)
		}
	}
	rec := crashAndRecover(t, s)

	// Continue the workload across the crash, including enough churn to
	// force GC on the recovered allocator (sealed blocks, rebuilt pools).
	for op := 0; op < 3000; op++ {
		off := rng.Int63n(region - 40)
		count := rng.Int31n(30) + 1
		if rng.Intn(100) < 60 {
			if _, err := rec.Write(trace.Request{Op: trace.OpWrite, Offset: off, Count: count}, float64(op)); err != nil {
				t.Fatalf("post-recovery write %d: %v", op, err)
			}
		} else {
			if _, err := rec.Read(trace.Request{Op: trace.OpRead, Offset: off, Count: count}, float64(op)); err != nil {
				t.Fatalf("post-recovery read %d: %v", op, err)
			}
		}
		if op%500 == 0 {
			if err := rec.Audit(); err != nil {
				t.Fatalf("post-recovery audit at op %d: %v", op, err)
			}
		}
	}
	if rec.Dev.Array.TotalErases() == 0 {
		t.Fatal("no GC after recovery; allocator pools not rebuilt")
	}
}

func TestRecoveryPadsOpenBlocks(t *testing.T) {
	s, _ := tinyScheme(t)
	// A single small write leaves the active block partially written.
	mustWrite(t, s, 8, 12, 0)
	free0, _, _ := s.Dev.Array.CountStates()
	rec := crashAndRecover(t, s)
	free1, _, invalid := rec.Dev.Array.CountStates()
	if free1 >= free0 {
		t.Fatalf("recovery did not seal the open block: free %d -> %d", free0, free1)
	}
	if invalid == 0 {
		t.Fatal("no padding pages recorded")
	}
	// The allocator's free accounting matches the sealed device.
	if got := rec.Al.TotalFreePages(); got != free1 {
		t.Fatalf("allocator free=%d, device free=%d", got, free1)
	}
}

func TestBaselineRecovery(t *testing.T) {
	c := ssdconf.Tiny()
	s, err := ftl.NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	pages := c.LogicalSectors() / 16 / 2
	written := map[int64]bool{}
	for op := 0; op < 2000; op++ {
		lpn := rng.Int63n(pages)
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: lpn * 16, Count: 16}, float64(op)); err != nil {
			t.Fatal(err)
		}
		written[lpn] = true
	}
	rec, err := ftl.RecoverBaseline(s.Dev)
	if err != nil {
		t.Fatalf("RecoverBaseline: %v", err)
	}
	for lpn := range written {
		if rec.PMT.PPNOf(lpn) != s.PMT.PPNOf(lpn) {
			t.Fatalf("lpn %d recovered to %d, want %d", lpn, rec.PMT.PPNOf(lpn), s.PMT.PPNOf(lpn))
		}
	}
	// And it keeps running.
	for op := 0; op < 1000; op++ {
		lpn := rng.Int63n(pages)
		if _, err := rec.Write(trace.Request{Op: trace.OpWrite, Offset: lpn * 16, Count: 16}, float64(op)); err != nil {
			t.Fatalf("post-recovery write: %v", err)
		}
	}
}

// Baseline recovery owns only TagData pages: it refuses a device that holds
// an Across-FTL area page, and one that holds DFTL's spilled translation
// pages.
func TestBaselineRecoveryRejectsForeignTags(t *testing.T) {
	s, _ := tinyScheme(t)
	mustWrite(t, s, 2056, 12, 0)
	if _, err := ftl.RecoverBaseline(s.Dev); err == nil {
		t.Fatal("baseline recovery accepted an Across-FTL device")
	}

	c := ssdconf.Tiny()
	c.MapEntryBytes = 512 // 16 entries per translation page
	d, err := ftl.NewDFTLWithCache(&c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, lpn := range []int64{0, 16, 32} { // the third write evicts page 0, dirty
		if _, err := d.Write(trace.Request{Op: trace.OpWrite, Offset: lpn * 16, Count: 16}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d.Dev.Count.MapWrites == 0 {
		t.Fatal("the DFTL device spilled no translation page")
	}
	if _, err := ftl.RecoverBaseline(d.Dev); err == nil {
		t.Fatal("baseline recovery accepted a DFTL device holding translation pages")
	}
}
