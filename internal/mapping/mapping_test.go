package mapping

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"across/internal/flash"
	"across/internal/snapshot"
)

func TestPMTStartsUnmapped(t *testing.T) {
	pmt := NewPMT(8)
	if pmt.Len() != 8 {
		t.Fatalf("Len = %d, want 8", pmt.Len())
	}
	for lpn := int64(0); lpn < 8; lpn++ {
		if pmt.PPNOf(lpn) != flash.NilPPN {
			t.Fatalf("LPN %d mapped at start", lpn)
		}
		if pmt.AIdxOf(lpn) != NoAIdx {
			t.Fatalf("LPN %d has AIdx at start", lpn)
		}
	}
	if pmt.MappedPages() != 0 {
		t.Fatal("MappedPages != 0 at start")
	}
}

func TestPMTSetAndGet(t *testing.T) {
	pmt := NewPMT(4)
	if old := pmt.SetPPN(2, 100); old != flash.NilPPN {
		t.Fatalf("first SetPPN returned old=%d, want NilPPN", old)
	}
	if old := pmt.SetPPN(2, 200); old != 100 {
		t.Fatalf("second SetPPN returned old=%d, want 100", old)
	}
	pmt.SetAIdx(2, 5)
	e := pmt.Get(2)
	if e.PPN != 200 || e.AIdx != 5 {
		t.Fatalf("entry = %+v, want PPN 200 AIdx 5", e)
	}
	pmt.ClearAIdx(2)
	if pmt.AIdxOf(2) != NoAIdx {
		t.Fatal("ClearAIdx did not clear")
	}
	if pmt.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d, want 1", pmt.MappedPages())
	}
}

func TestPMTPanicsOutOfRange(t *testing.T) {
	pmt := NewPMT(2)
	for _, f := range []func(){
		func() { pmt.Get(2) },
		func() { pmt.Get(-1) },
		func() { pmt.SetPPN(99, 0) },
		func() { pmt.SetAIdx(-5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on out-of-range LPN")
				}
			}()
			f()
		}()
	}
}

func TestAMTAllocGetUpdateFree(t *testing.T) {
	amt := NewAMT()
	e := AMTEntry{LPN: 128, Off: 8, Size: 12, APPN: 200}
	idx := amt.Alloc(e)
	if got := amt.Get(idx); got != e {
		t.Fatalf("Get = %+v, want %+v", got, e)
	}
	if e.End() != 20 {
		t.Fatalf("End = %d, want 20", e.End())
	}
	e2 := e
	e2.Size = 16
	e2.APPN = 300
	amt.Update(idx, e2)
	if got := amt.Get(idx); got != e2 {
		t.Fatalf("after Update, Get = %+v, want %+v", got, e2)
	}
	amt.SetAPPN(idx, 400)
	if got := amt.Get(idx).APPN; got != 400 {
		t.Fatalf("after SetAPPN, APPN = %d, want 400", got)
	}
	amt.Free(idx)
	if amt.InUse(idx) {
		t.Fatal("index still in use after Free")
	}
	if amt.Live() != 0 {
		t.Fatalf("Live = %d, want 0", amt.Live())
	}
}

func TestAMTRecyclesIndices(t *testing.T) {
	amt := NewAMT()
	a := amt.Alloc(AMTEntry{LPN: 1})
	b := amt.Alloc(AMTEntry{LPN: 2})
	amt.Free(a)
	c := amt.Alloc(AMTEntry{LPN: 3})
	if c != a {
		t.Fatalf("recycled index = %d, want %d", c, a)
	}
	if amt.Slots() != 2 {
		t.Fatalf("Slots = %d, want 2 (no growth on recycle)", amt.Slots())
	}
	if amt.Get(b).LPN != 2 || amt.Get(c).LPN != 3 {
		t.Fatal("entries corrupted by recycling")
	}
}

func TestAMTPeakTracksHighWaterMark(t *testing.T) {
	amt := NewAMT()
	a := amt.Alloc(AMTEntry{})
	amt.Alloc(AMTEntry{})
	amt.Free(a)
	amt.Alloc(AMTEntry{})
	if amt.Peak() != 2 {
		t.Fatalf("Peak = %d, want 2", amt.Peak())
	}
	if amt.Live() != 2 {
		t.Fatalf("Live = %d, want 2", amt.Live())
	}
}

func TestAMTPanicsOnDeadIndex(t *testing.T) {
	amt := NewAMT()
	idx := amt.Alloc(AMTEntry{})
	amt.Free(idx)
	for _, f := range []func(){
		func() { amt.Get(idx) },
		func() { amt.Update(idx, AMTEntry{}) },
		func() { amt.Free(idx) },
		func() { amt.Get(77) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on dead/invalid index")
				}
			}()
			f()
		}()
	}
}

func TestAMTAllocAt(t *testing.T) {
	amt := NewAMT()
	amt.AllocAt(5, AMTEntry{LPN: 50})
	if !amt.InUse(5) || amt.Get(5).LPN != 50 {
		t.Fatal("AllocAt(5) did not install")
	}
	if amt.Live() != 1 || amt.Slots() != 6 {
		t.Fatalf("Live=%d Slots=%d, want 1 and 6", amt.Live(), amt.Slots())
	}
	// Indices 0..4 were added to the free list; Alloc must reuse them
	// without colliding with 5.
	for i := 0; i < 5; i++ {
		idx := amt.Alloc(AMTEntry{LPN: int64(i)})
		if idx == 5 {
			t.Fatal("Alloc handed out a live index")
		}
	}
	if amt.Slots() != 6 {
		t.Fatalf("Slots = %d, want 6 (free list reused)", amt.Slots())
	}
	// AllocAt on a live index panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AllocAt on live index did not panic")
			}
		}()
		amt.AllocAt(5, AMTEntry{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AllocAt(-1) did not panic")
			}
		}()
		amt.AllocAt(-1, AMTEntry{})
	}()
}

func TestAMTAllocAtInterleavedWithFree(t *testing.T) {
	amt := NewAMT()
	a := amt.Alloc(AMTEntry{LPN: 1})
	amt.Free(a)
	amt.AllocAt(a, AMTEntry{LPN: 2}) // reuse the freed index explicitly
	if amt.Get(a).LPN != 2 {
		t.Fatal("AllocAt on freed index failed")
	}
	b := amt.Alloc(AMTEntry{LPN: 3})
	if b == a {
		t.Fatal("Alloc reused a live index after AllocAt")
	}
}

// Property: under random alloc/free/update traffic, the AMT behaves like a
// reference map from index to entry, and live/slot accounting stays exact.
func TestAMTMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		amt := NewAMT()
		ref := map[int32]AMTEntry{}
		for op := 0; op < 400; op++ {
			switch rng.Intn(3) {
			case 0:
				e := AMTEntry{LPN: rng.Int63n(1000), Off: int32(rng.Intn(16)),
					Size: int32(rng.Intn(16) + 1), APPN: flash.PPN(rng.Int63n(4096))}
				idx := amt.Alloc(e)
				if _, clash := ref[idx]; clash {
					return false // handed out a live index twice
				}
				ref[idx] = e
			case 1:
				for idx := range ref {
					e := ref[idx]
					e.APPN++
					amt.Update(idx, e)
					ref[idx] = e
					break
				}
			case 2:
				for idx := range ref {
					amt.Free(idx)
					delete(ref, idx)
					break
				}
			}
			if amt.Live() != len(ref) {
				return false
			}
			for idx, want := range ref {
				if !amt.InUse(idx) || amt.Get(idx) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The PPN column is 32 bits wide: a PPN that does not fit is refused by panic
// from SetPPN (a caller bug: flash.NewArray refuses such a device), never
// stored truncated — and the snapshot writes the column at that width, so
// what the table can hold is exactly what a checkpoint can say.
func TestPMTRefusesPPNPast32Bits(t *testing.T) {
	pmt := NewPMT(2)
	pmt.SetPPN(0, math.MaxInt32)
	if got := pmt.PPNOf(0); got != math.MaxInt32 {
		t.Fatalf("PPNOf = %d, want %d", got, math.MaxInt32)
	}
	for _, ppn := range []flash.PPN{math.MaxInt32 + 1, 1 << 40, math.MinInt32 - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetPPN(%d) did not panic", ppn)
				}
			}()
			pmt.SetPPN(1, ppn)
		}()
		if got := pmt.PPNOf(1); got != flash.NilPPN {
			t.Fatalf("refused SetPPN(%d) stored %d", ppn, got)
		}
	}

	enc := snapshot.NewEncoder()
	if err := pmt.SnapshotState(enc); err != nil {
		t.Fatal(err)
	}
	blob, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4+3) + 8 + 2*4 + 1; snapshot.BodyLen(blob) != want {
		t.Errorf("a 2-entry PMT seals to a %d-byte body, want %d (tag, count, two 32-bit PPNs, no AIdx column)", snapshot.BodyLen(blob), want)
	}
	dec, err := snapshot.NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewPMT(2)
	if err := restored.RestoreState(dec); err != nil || dec.Finish() != nil {
		t.Fatalf("RestoreState: %v, Finish: %v", err, dec.Finish())
	}
	if restored.PPNOf(0) != math.MaxInt32 || restored.PPNOf(1) != flash.NilPPN {
		t.Errorf("restored PPNs %d, %d; want %d, %d", restored.PPNOf(0), restored.PPNOf(1), math.MaxInt32, flash.NilPPN)
	}
}

// The AIdx column exists only once an LPN has been remapped; until then the
// table answers NoAIdx everywhere, clears are free, and the encoding is the
// one a fully allocated table writes.
func TestPMTAIdxColumnIsLazy(t *testing.T) {
	encode := func(p *PMT) []byte {
		enc := snapshot.NewEncoder()
		if err := p.SnapshotState(enc); err != nil {
			t.Fatal(err)
		}
		blob, err := enc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	lazy, full := NewPMT(4), NewPMT(4)
	lazy.SetPPN(1, 9)
	full.SetPPN(1, 9)
	full.SetAIdx(2, 5)
	full.ClearAIdx(2)
	lazy.ClearAIdx(2)
	if lazy.aidx != nil {
		t.Fatal("ClearAIdx allocated the AIdx column")
	}
	if full.aidx == nil {
		t.Fatal("SetAIdx did not allocate the AIdx column")
	}
	if !bytes.Equal(encode(lazy), encode(full)) {
		t.Fatal("a PMT without an AIdx column encodes differently from one with every AIdx cleared")
	}
	dec, err := snapshot.NewDecoder(encode(lazy))
	if err != nil {
		t.Fatal(err)
	}
	restored := NewPMT(4)
	if err := restored.RestoreState(dec); err != nil {
		t.Fatal(err)
	}
	if restored.aidx != nil {
		t.Fatal("restoring an all-NoAIdx table allocated the AIdx column")
	}
	if restored.Get(1) != (PMTEntry{PPN: 9, AIdx: NoAIdx}) {
		t.Fatalf("restored entry = %+v", restored.Get(1))
	}
}
