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
	l := NewLRUDense(2, 100)
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
	l := NewLRUDense(2, 100)
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
	l := NewLRUDense(1, 100)
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
	l := NewLRUDense(2, 100)
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
	l := NewLRUDense(3, 100)
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
	l := NewLRUDense(0, 100)
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
		l := NewLRUDense(capacity, 100)
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
