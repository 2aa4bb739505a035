package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// isDirty reads the dirty bit of a resident key (false if absent) without
// touching recency.
func isDirty(l *LRU, key int64) bool {
	n := l.lookup(key)
	return n != nil && n.dirty
}

func TestLRUBasicInsertAndHit(t *testing.T) {
	l := NewLRU(2)
	if hit, _, _, ev := l.Touch(1, false); hit || ev {
		t.Fatal("first insert should miss without eviction")
	}
	if hit, _, _, _ := l.Touch(1, false); !hit {
		t.Fatal("second touch should hit")
	}
	if l.Len() != 1 || l.Cap() != 2 {
		t.Fatalf("Len=%d Cap=%d, want 1 and 2", l.Len(), l.Cap())
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := NewLRU(2)
	l.Touch(1, false)
	l.Touch(2, false)
	l.Touch(1, false) // 1 is now MRU, 2 is LRU
	_, victim, _, evicted := l.Touch(3, false)
	if !evicted || victim != 2 {
		t.Fatalf("evicted=%v victim=%d, want eviction of 2", evicted, victim)
	}
	if keys := l.Keys(); !slices.Equal(keys, []int64{3, 1}) {
		t.Fatalf("resident %v, want 3 and 1 (2 gone)", keys)
	}
}

func TestLRUDirtyBitPropagation(t *testing.T) {
	l := NewLRU(1)
	l.Touch(1, false)
	l.Touch(1, true) // mark dirty
	if !isDirty(l, 1) {
		t.Fatal("1 should be dirty")
	}
	l.Touch(1, false) // clean touch must not clear the dirty bit
	if !isDirty(l, 1) {
		t.Fatal("dirty bit must be sticky across clean touches")
	}
	_, victim, victimDirty, evicted := l.Touch(2, false)
	if !evicted || victim != 1 || !victimDirty {
		t.Fatalf("expected dirty eviction of 1, got evicted=%v victim=%d dirty=%v",
			evicted, victim, victimDirty)
	}
}

func TestLRUCleanAndRemove(t *testing.T) {
	l := NewLRU(2)
	l.Touch(1, true)
	l.Clean(1)
	if isDirty(l, 1) {
		t.Fatal("Clean did not clear dirty bit")
	}
	was, dirty := l.Remove(1)
	if !was || dirty {
		t.Fatalf("Remove = (%v,%v), want (true,false)", was, dirty)
	}
	if was, _ := l.Remove(1); was {
		t.Fatal("Remove of absent key reported resident")
	}
	l.Clean(99) // no-op on absent key must not panic
}

func TestLRUKeysOrder(t *testing.T) {
	l := NewLRU(3)
	l.Touch(1, false)
	l.Touch(2, false)
	l.Touch(3, false)
	l.Touch(1, false)
	got := l.Keys()
	want := []int64{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestLRUCapacityClamp(t *testing.T) {
	l := NewLRU(0)
	if l.Cap() != 1 {
		t.Fatalf("Cap = %d, want clamp to 1", l.Cap())
	}
}

// Property: the LRU never exceeds capacity, eviction victims are never
// still resident, and a reference model (map + recency slice) agrees on
// residency after arbitrary operation sequences.
func TestLRUMatchesReferenceModel(t *testing.T) {
	f := func(seed int64, capSeed uint8) bool {
		capacity := int(capSeed%8) + 1
		rng := rand.New(rand.NewSource(seed))
		l := NewLRU(capacity)
		var ref []int64 // most recent first
		refHas := func(k int64) int {
			for i, v := range ref {
				if v == k {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 300; op++ {
			k := rng.Int63n(12)
			switch rng.Intn(3) {
			case 0, 1:
				hit, victim, _, evicted := l.Touch(k, rng.Intn(2) == 0)
				if i := refHas(k); i >= 0 {
					if !hit {
						return false
					}
					ref = append(ref[:i], ref[i+1:]...)
				} else if hit {
					return false
				} else if len(ref) >= capacity {
					want := ref[len(ref)-1]
					ref = ref[:len(ref)-1]
					if !evicted || victim != want {
						return false
					}
				} else if evicted {
					return false
				}
				ref = append([]int64{k}, ref...)
			case 2:
				l.Remove(k)
				if i := refHas(k); i >= 0 {
					ref = append(ref[:i], ref[i+1:]...)
				}
			}
			if l.Len() != len(ref) || l.Len() > capacity {
				return false
			}
			if !slices.Equal(l.Keys(), ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCMTGroupsEntriesIntoPages(t *testing.T) {
	c := NewCMT(4, 2)
	if c.PageOf(0) != 0 || c.PageOf(3) != 0 || c.PageOf(4) != 1 {
		t.Fatal("PageOf grouping wrong")
	}
	// Entries 0..3 share a translation page: one miss then hits.
	if e := c.Touch(0, false); !e.MissRead {
		t.Fatal("first touch should miss")
	}
	for i := int64(1); i < 4; i++ {
		if e := c.Touch(i, false); e.MissRead {
			t.Fatalf("touch of entry %d should hit (same page)", i)
		}
	}
	s := c.Stats()
	if s.Lookups != 4 || s.Misses != 1 || s.Hits != 3 {
		t.Fatalf("stats = %+v, want 4 lookups, 1 miss, 3 hits", s)
	}
}

func TestCMTDirtyEvictionRequiresFlush(t *testing.T) {
	c := NewCMT(1, 1) // one entry per page, one resident page
	c.Touch(0, true)  // page 0 resident and dirty
	e := c.Touch(1, false)
	if !e.MissRead || !e.FlushWrite || e.Victim != 0 {
		t.Fatalf("effect = %+v, want miss + flush of victim 0", e)
	}
	// Clean eviction: page 1 was never dirtied.
	e = c.Touch(2, false)
	if !e.MissRead || e.FlushWrite {
		t.Fatalf("effect = %+v, want clean eviction (no flush)", e)
	}
	s := c.Stats()
	if s.DirtyEvicts != 1 || s.CleanEvicts != 1 {
		t.Fatalf("stats = %+v, want one dirty and one clean eviction", s)
	}
}

func TestCMTHitRatioAndReset(t *testing.T) {
	c := NewCMT(2, 4)
	if got := c.Stats().HitRatio(); got != 1 {
		t.Fatalf("empty HitRatio = %v, want 1", got)
	}
	c.Touch(0, false)
	c.Touch(1, false)
	if got := c.Stats().HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", got)
	}
	c.ResetStats()
	if c.Stats().Lookups != 0 {
		t.Fatal("ResetStats did not clear lookups")
	}
	// Contents survive a stats reset.
	if e := c.Touch(0, false); e.MissRead {
		t.Fatal("page 0 should still be resident after ResetStats")
	}
}

func TestCMTClampsDegenerateParameters(t *testing.T) {
	c := NewCMT(0, 0)
	if c.EntriesPerPage() != 1 || c.ResidentPages() != 1 {
		t.Fatalf("clamped CMT = (%d,%d), want (1,1)", c.EntriesPerPage(), c.ResidentPages())
	}
}

// TestRehitIsTouchOfTheMRUPage: after any touch, Rehit of an entry in the
// page just touched leaves the stats, the recency order and every dirty bit
// where Touch of that entry leaves them.
func TestRehitIsTouchOfTheMRUPage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := NewCMTDense(8, 3, 64), NewCMTDense(8, 3, 64)
	for i := 0; i < 5000; i++ {
		e, dirty := rng.Int63n(64), rng.Intn(2) == 0
		a.Touch(e, dirty)
		b.Touch(e, dirty)
		if rng.Intn(4) == 0 {
			a.MarkClean(a.PageOf(e))
			b.MarkClean(b.PageOf(e))
		}
		same := a.PageOf(e)*8 + rng.Int63n(8)
		dirty = rng.Intn(2) == 0
		a.Touch(same, dirty)
		b.Rehit(dirty)
		if a.Stats() != b.Stats() {
			t.Fatalf("step %d: stats %+v after Rehit, %+v after Touch", i, b.Stats(), a.Stats())
		}
		ka, kb := a.lru.Keys(), b.lru.Keys()
		if len(ka) != len(kb) {
			t.Fatalf("step %d: resident %v after Rehit, %v after Touch", i, kb, ka)
		}
		for j := range ka {
			if ka[j] != kb[j] || isDirty(a.lru, ka[j]) != isDirty(b.lru, kb[j]) {
				t.Fatalf("step %d: resident %v after Rehit, %v after Touch (or a dirty bit differs)", i, kb, ka)
			}
		}
	}
}
