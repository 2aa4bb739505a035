package flash

import (
	"math/rand"
	"testing"

	"across/internal/ssdconf"
)

// naiveGreedy recomputes the greedy victim from per-block counters — the
// semantics the index must reproduce exactly.
func naiveGreedy(a *Array, pl PlaneID, skip1, skip2 BlockID) BlockID {
	lo, hi := a.Geo.BlocksOfPlane(pl)
	best := BlockID(-1)
	bestValid := a.Geo.PagesPerBlock
	for b := lo; b < hi; b++ {
		if b == skip1 || b == skip2 {
			continue
		}
		if a.WritePtr(b) != a.Geo.PagesPerBlock {
			continue
		}
		if v := a.ValidCount(b); v < bestValid {
			best, bestValid = b, v
		}
	}
	return best
}

// TestVictimIndexMatchesNaiveScan drives the array through random
// program/invalidate/erase traffic and cross-checks every index lookup
// against the reference linear scan, including skip combinations.
func TestVictimIndexMatchesNaiveScan(t *testing.T) {
	c := ssdconf.Tiny() // multiple planes, 16 blocks x 8 pages per plane
	a := MustNewArray(&c)
	rng := rand.New(rand.NewSource(42))
	geo := a.Geo

	check := func(step int) {
		t.Helper()
		for pl := PlaneID(0); int(pl) < geo.Planes; pl++ {
			lo, hi := geo.BlocksOfPlane(pl)
			skips := [][2]BlockID{
				{-1, -1},
				{lo, -1},
				{lo, hi - 1},
				{lo + BlockID(rng.Intn(int(hi-lo))), -1},
			}
			for _, sk := range skips {
				if got, want := a.GreedyVictim(pl, sk[0], sk[1]), naiveGreedy(a, pl, sk[0], sk[1]); got != want {
					t.Fatalf("step %d plane %d skips %v: GreedyVictim=%d naive=%d", step, pl, sk, got, want)
				}
			}
		}
	}

	for step := 0; step < 4000; step++ {
		bid := BlockID(rng.Int63n(geo.TotalBlocks()))
		switch rng.Intn(3) {
		case 0: // program the next page of a random non-full block
			if a.WritePtr(bid) < geo.PagesPerBlock {
				p := geo.FirstPage(bid) + PPN(a.WritePtr(bid))
				if err := a.Program(p, Tag{Kind: 1, Key: int64(p)}); err != nil {
					t.Fatal(err)
				}
			}
		case 1: // invalidate a random valid page of the block
			first := geo.FirstPage(bid)
			for i := 0; i < a.WritePtr(bid); i++ {
				p := first + PPN(i)
				if a.State(p) == PageValid && rng.Intn(2) == 0 {
					if err := a.Invalidate(p); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		case 2: // erase if no valid pages remain
			if a.ValidCount(bid) == 0 && a.WritePtr(bid) > 0 {
				if err := a.Erase(bid); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%50 == 0 {
			check(step)
		}
	}
	check(-1)
}
