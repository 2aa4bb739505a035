package flash

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"across/internal/snapshot"
	"across/internal/ssdconf"
)

func tinyArray(t *testing.T) *Array {
	t.Helper()
	c := ssdconf.Tiny()
	a, err := NewArray(&c)
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return a
}

func TestNewArrayRejectsInvalidConfig(t *testing.T) {
	c := ssdconf.Tiny()
	c.Channels = 0
	if _, err := NewArray(&c); err == nil {
		t.Fatal("NewArray accepted invalid config")
	}
}

func TestProgramReadInvalidateEraseCycle(t *testing.T) {
	a := tinyArray(t)
	p := PPN(0)
	if got := a.State(p); got != PageFree {
		t.Fatalf("initial state = %v, want free", got)
	}
	if err := a.Read(p); !errors.Is(err, ErrReadUnwritten) {
		t.Fatalf("Read(free) err = %v, want ErrReadUnwritten", err)
	}
	tag := Tag{Kind: 1, Key: 42}
	if err := a.Program(p, tag); err != nil {
		t.Fatalf("Program: %v", err)
	}
	if got := a.State(p); got != PageValid {
		t.Fatalf("state after program = %v, want valid", got)
	}
	if got := a.TagOf(p); got != tag {
		t.Fatalf("tag = %+v, want %+v", got, tag)
	}
	if err := a.Read(p); err != nil {
		t.Fatalf("Read(valid): %v", err)
	}
	if err := a.Invalidate(p); err != nil {
		t.Fatalf("Invalidate: %v", err)
	}
	if got := a.State(p); got != PageInvalid {
		t.Fatalf("state after invalidate = %v, want invalid", got)
	}
	// Reading stale (invalid) data is allowed; re-invalidating is not.
	if err := a.Read(p); err != nil {
		t.Fatalf("Read(invalid): %v", err)
	}
	if err := a.Invalidate(p); !errors.Is(err, ErrInvalidateNotValid) {
		t.Fatalf("double Invalidate err = %v, want ErrInvalidateNotValid", err)
	}
	bid := a.Geo.BlockOf(p)
	if err := a.Erase(bid); err != nil {
		t.Fatalf("Erase: %v", err)
	}
	if got := a.State(p); got != PageFree {
		t.Fatalf("state after erase = %v, want free", got)
	}
	if got := a.EraseCount(bid); got != 1 {
		t.Fatalf("EraseCount = %d, want 1", got)
	}
	if got := a.TotalErases(); got != 1 {
		t.Fatalf("TotalErases = %d, want 1", got)
	}
}

func TestProgramEnforcesOrderWithinBlock(t *testing.T) {
	a := tinyArray(t)
	// Page 1 before page 0 must fail.
	if err := a.Program(PPN(1), Tag{}); !errors.Is(err, ErrProgramOutOfOrder) {
		t.Fatalf("out-of-order program err = %v, want ErrProgramOutOfOrder", err)
	}
	if err := a.Program(PPN(0), Tag{}); err != nil {
		t.Fatalf("Program(0): %v", err)
	}
	if err := a.Program(PPN(0), Tag{}); !errors.Is(err, ErrProgramNotFree) {
		t.Fatalf("reprogram err = %v, want ErrProgramNotFree", err)
	}
	if err := a.Program(PPN(1), Tag{}); err != nil {
		t.Fatalf("Program(1): %v", err)
	}
}

func TestEraseRefusesLiveData(t *testing.T) {
	a := tinyArray(t)
	if err := a.Program(PPN(0), Tag{Kind: 1, Key: 7}); err != nil {
		t.Fatal(err)
	}
	if err := a.Erase(0); !errors.Is(err, ErrEraseWithValid) {
		t.Fatalf("Erase(live) err = %v, want ErrEraseWithValid", err)
	}
	if err := a.Invalidate(PPN(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Erase(0); err != nil {
		t.Fatalf("Erase after invalidate: %v", err)
	}
}

func TestBoundsChecking(t *testing.T) {
	a := tinyArray(t)
	bad := PPN(a.Geo.TotalPages())
	if err := a.Program(bad, Tag{}); err == nil {
		t.Error("Program out of range accepted")
	}
	if err := a.Read(-1); err == nil {
		t.Error("Read(-1) accepted")
	}
	if err := a.Invalidate(bad); err == nil {
		t.Error("Invalidate out of range accepted")
	}
	if err := a.Erase(BlockID(a.Geo.TotalBlocks())); err == nil {
		t.Error("Erase out of range accepted")
	}
}

func TestValidPagesListsProgramOrder(t *testing.T) {
	a := tinyArray(t)
	for i := 0; i < 4; i++ {
		if err := a.Program(PPN(i), Tag{Kind: 1, Key: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Invalidate(PPN(1)); err != nil {
		t.Fatal(err)
	}
	got := a.ValidPages(0)
	want := []PPN{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ValidPages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ValidPages = %v, want %v", got, want)
		}
	}
	if a.ValidCount(0) != 3 {
		t.Fatalf("ValidCount = %d, want 3", a.ValidCount(0))
	}
	if a.FreeInBlock(0) != a.Geo.PagesPerBlock-4 {
		t.Fatalf("FreeInBlock = %d, want %d", a.FreeInBlock(0), a.Geo.PagesPerBlock-4)
	}
}

func TestCountStatesAccounting(t *testing.T) {
	a := tinyArray(t)
	total := a.Geo.TotalPages()
	free, valid, invalid := a.CountStates()
	if free != total || valid != 0 || invalid != 0 {
		t.Fatalf("fresh array states = (%d,%d,%d), want (%d,0,0)", free, valid, invalid, total)
	}
	for i := 0; i < 6; i++ {
		if err := a.Program(PPN(i), Tag{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := a.Invalidate(PPN(i)); err != nil {
			t.Fatal(err)
		}
	}
	free, valid, invalid = a.CountStates()
	if free != total-6 || valid != 4 || invalid != 2 {
		t.Fatalf("states = (%d,%d,%d), want (%d,4,2)", free, valid, invalid, total-6)
	}
}

// TestRandomOpSequenceInvariants drives the array with random legal
// operations and checks, after every step, that per-block accounting agrees
// with a brute-force recount. This is the state-machine soundness property.
func TestRandomOpSequenceInvariants(t *testing.T) {
	c := ssdconf.Tiny()
	a := MustNewArray(&c)
	rng := rand.New(rand.NewSource(7))
	live := map[PPN]bool{}

	recount := func(bid BlockID) (valid, written int) {
		first := a.Geo.FirstPage(bid)
		for i := 0; i < a.Geo.PagesPerBlock; i++ {
			switch a.State(first + PPN(i)) {
			case PageValid:
				valid++
				written++
			case PageInvalid:
				written++
			}
		}
		return
	}

	for step := 0; step < 5000; step++ {
		switch rng.Intn(3) {
		case 0: // program the next page of a random non-full block
			bid := BlockID(rng.Int63n(a.Geo.TotalBlocks()))
			if a.WritePtr(bid) < a.Geo.PagesPerBlock {
				p := a.Geo.FirstPage(bid) + PPN(a.WritePtr(bid))
				if err := a.Program(p, Tag{Kind: 1, Key: int64(step)}); err != nil {
					t.Fatalf("step %d Program: %v", step, err)
				}
				live[p] = true
			}
		case 1: // invalidate a random live page
			for p := range live {
				if err := a.Invalidate(p); err != nil {
					t.Fatalf("step %d Invalidate: %v", step, err)
				}
				delete(live, p)
				break
			}
		case 2: // erase a random block with no live pages
			bid := BlockID(rng.Int63n(a.Geo.TotalBlocks()))
			if a.ValidCount(bid) == 0 && a.WritePtr(bid) > 0 {
				if err := a.Erase(bid); err != nil {
					t.Fatalf("step %d Erase: %v", step, err)
				}
			}
		}
		// Spot-check a random block's accounting against a recount.
		bid := BlockID(rng.Int63n(a.Geo.TotalBlocks()))
		valid, written := recount(bid)
		if a.ValidCount(bid) != valid {
			t.Fatalf("step %d block %d ValidCount=%d recount=%d", step, bid, a.ValidCount(bid), valid)
		}
		if a.WritePtr(bid) != written {
			t.Fatalf("step %d block %d WritePtr=%d recount=%d", step, bid, a.WritePtr(bid), written)
		}
	}
}

// TestGeometryRoundTrip checks PPN <-> (block, index) <-> plane <-> chip
// arithmetic for arbitrary pages of arbitrary geometries.
func TestGeometryRoundTrip(t *testing.T) {
	f := func(chSeed, blkSeed uint8, pageSeed uint16) bool {
		c := ssdconf.Tiny()
		c.Channels = int(chSeed%4) + 1
		c.BlocksPerPlane = int(blkSeed%32) + 2
		g := NewGeometry(&c)
		p := PPN(int64(pageSeed) % g.TotalPages())
		bid := g.BlockOf(p)
		if g.FirstPage(bid)+PPN(g.PageIndexOf(p)) != p {
			return false
		}
		pl := g.PlaneOf(p)
		lo, hi := g.BlocksOfPlane(pl)
		if bid < lo || bid >= hi {
			return false
		}
		chip := g.ChipOf(p)
		return chip >= 0 && int(chip) < g.Chips
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPageStateString(t *testing.T) {
	if PageFree.String() != "free" || PageValid.String() != "valid" || PageInvalid.String() != "invalid" {
		t.Error("PageState.String mismatch")
	}
	if PageState(9).String() == "" {
		t.Error("unknown state should still render")
	}
}

// past32 is Table 1 grown to exactly 2^31 pages: one more than the 32-bit
// columns can index. Nothing may be allocated for it.
func past32() ssdconf.Config {
	c := ssdconf.Table1()
	c.BlocksPerPlane = (1 << 31) / (c.PlanesTotal() * c.PagesPerBlock)
	return c
}

func TestNewArrayRefusesGeometryPast32Bits(t *testing.T) {
	c := past32()
	if got := c.PagesTotal(); got != math.MaxInt32+1 {
		t.Fatalf("test geometry has %d pages, want %d", got, int64(math.MaxInt32)+1)
	}
	if _, err := NewArray(&c); !errors.Is(err, ErrGeometryTooLarge) {
		t.Fatalf("NewArray(2^31 pages) err = %v, want ErrGeometryTooLarge", err)
	}
}

func TestProgramRefusesTagOutsidePackedRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		tag  Tag
		ok   bool
	}{
		{"largest kind", Tag{Kind: MaxKind, Key: 1}, true},
		{"kind 63", Tag{Kind: MaxKind + 1, Key: 1}, false},
		{"nil tag", NilTag, false},
		{"key -1", Tag{Kind: 1, Key: -1}, true},
		{"largest key", Tag{Kind: 1, Key: math.MaxInt32}, true},
		{"key 2^31", Tag{Kind: 1, Key: math.MaxInt32 + 1}, false},
		{"key 2^40", Tag{Kind: 1, Key: 1 << 40}, false},
		{"key below -2^31", Tag{Kind: 1, Key: math.MinInt32 - 1}, false},
		{"wide aux", Tag{Kind: 1, Key: 1, Aux: math.MinInt64}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tinyArray(t)
			err := a.Program(0, tc.tag)
			if tc.ok {
				if err != nil {
					t.Fatalf("Program(%+v): %v", tc.tag, err)
				}
				if got := a.TagOf(0); got != tc.tag {
					t.Fatalf("TagOf = %+v, want %+v", got, tc.tag)
				}
				return
			}
			if !errors.Is(err, ErrTagRange) {
				t.Fatalf("Program(%+v) err = %v, want ErrTagRange", tc.tag, err)
			}
			if a.State(0) != PageFree || a.WritePtr(0) != 0 || a.TotalPrograms() != 0 {
				t.Fatalf("refused program left state %v, cursor %d, %d programs", a.State(0), a.WritePtr(0), a.TotalPrograms())
			}
		})
	}
}

// Invalidate and Erase leave the key and aux columns alone, so the columns
// hold stale values that must never show: a dead page answers NilTag, and a
// page programmed again answers exactly its new tag.
func TestStaleTagColumnsNeverShow(t *testing.T) {
	a := tinyArray(t)
	if err := a.Program(0, Tag{Kind: 1, Key: 7, Aux: 99}); err != nil {
		t.Fatal(err)
	}
	if err := a.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	if got := a.TagOf(0); got != NilTag {
		t.Fatalf("invalid page shows tag %+v", got)
	}
	if err := a.Erase(0); err != nil {
		t.Fatal(err)
	}
	if got := a.TagOf(0); got != NilTag {
		t.Fatalf("erased page shows tag %+v", got)
	}
	want := Tag{Kind: 2, Key: 8}
	if err := a.Program(0, want); err != nil {
		t.Fatal(err)
	}
	if got := a.TagOf(0); got != want {
		t.Fatalf("reprogrammed page shows %+v, want %+v", got, want)
	}
}

// Equal states seal to equal bytes whatever was ever allocated: an array
// whose aux column exists but whose every tagged page has since been
// invalidated writes what one that never allocated it writes, and restoring
// that allocates nothing. Once a valid page carries an Aux the column is
// written, and comes back with stale entries of dead pages left out.
func TestSnapshotIsCanonicalOverTheLazyAuxColumn(t *testing.T) {
	seal := func(a *Array) []byte {
		t.Helper()
		enc := snapshot.NewEncoder()
		if err := a.SnapshotState(enc); err != nil {
			t.Fatal(err)
		}
		blob, err := enc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	open := func(blob []byte) *Array {
		t.Helper()
		dec, err := snapshot.NewDecoder(blob)
		if err != nil {
			t.Fatal(err)
		}
		a := tinyArray(t)
		if err := a.RestoreState(dec); err != nil {
			t.Fatal(err)
		}
		if err := dec.Finish(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	never, once := tinyArray(t), tinyArray(t)
	for a, aux := range map[*Array]int64{never: 0, once: 99} {
		if err := a.Program(0, Tag{Kind: 1, Key: 7, Aux: aux}); err != nil {
			t.Fatal(err)
		}
		if err := a.Invalidate(0); err != nil {
			t.Fatal(err)
		}
		if err := a.Program(1, Tag{Kind: 1, Key: 7}); err != nil {
			t.Fatal(err)
		}
	}
	if never.aux != nil || once.aux == nil {
		t.Fatalf("aux allocated: never %v, once %v; want false, true", never.aux != nil, once.aux != nil)
	}
	blob := seal(once)
	if !bytes.Equal(blob, seal(never)) {
		t.Fatal("an aux column that holds nothing shows in the snapshot")
	}
	if restored := open(blob); restored.aux != nil {
		t.Error("restoring a snapshot without an aux column allocated one")
	} else if !bytes.Equal(seal(restored), blob) {
		t.Error("re-snapshot differs")
	}

	want := Tag{Kind: 2, Key: 8, Aux: 5}
	if err := once.Program(2, want); err != nil {
		t.Fatal(err)
	}
	withAux := seal(once)
	if snapshot.BodyLen(withAux) != snapshot.BodyLen(blob)+8+8*int64(once.Geo.TotalPages()) {
		t.Errorf("body grew from %d to %d bytes, want by one 64-bit column", snapshot.BodyLen(blob), snapshot.BodyLen(withAux))
	}
	restored := open(withAux)
	if got := restored.TagOf(2); got != want {
		t.Errorf("restored tag %+v, want %+v", got, want)
	}
	if restored.aux[0] != 0 || restored.key[0] != 0 {
		t.Errorf("the dead page's columns hold key %d, aux %d after a restore, want what a new array holds", restored.key[0], restored.aux[0])
	}
	if !bytes.Equal(seal(restored), withAux) {
		t.Error("re-snapshot with an aux column differs")
	}
}
