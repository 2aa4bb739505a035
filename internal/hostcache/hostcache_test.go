package hostcache

import (
	"math/rand"
	"testing"

	"across/internal/acrossftl"
	"across/internal/ftl"
	"across/internal/ssdconf"
	"across/internal/trace"
)

func wrapped(t *testing.T, pages int) (*Scheme, *ssdconf.Config) {
	t.Helper()
	c := ssdconf.Tiny()
	inner, err := ftl.NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	return Wrap(inner, pages), &c
}

func TestReadHitServedFromDRAM(t *testing.T) {
	s, c := wrapped(t, 8)
	w := trace.Request{Op: trace.OpWrite, Offset: 0, Count: 16} // full page
	if _, err := s.Write(w, 0); err != nil {
		t.Fatal(err)
	}
	flashReads := s.Device().Count.DataReads
	done, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 4, Count: 8}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.Device().Count.DataReads != flashReads {
		t.Fatal("cache hit touched flash")
	}
	want := 100 + c.CacheAccess
	if done < want-1e-9 || done > want+1e-9 {
		t.Fatalf("hit latency = %v, want %v", done-100, c.CacheAccess)
	}
	if st := s.Stats(); st.ReadHits != 1 || st.ReadMisses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReadMissPopulates(t *testing.T) {
	s, _ := wrapped(t, 8)
	// Write through a *fresh* inner scheme so the page is on flash but the
	// wrapper was not told: simulate by writing via inner directly.
	inner := s.inner
	if _, err := inner.Write(trace.Request{Op: trace.OpWrite, Offset: 0, Count: 16}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 0, Count: 16}, 1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ReadMisses != 1 || st.Inserted != 1 {
		t.Fatalf("stats = %+v, want one miss and one insert", st)
	}
	// Second read hits.
	r0 := s.Device().Count.DataReads
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 0, Count: 16}, 2); err != nil {
		t.Fatal(err)
	}
	if s.Device().Count.DataReads != r0 {
		t.Fatal("second read missed")
	}
}

func TestPartialWriteOfAbsentPageDoesNotInsert(t *testing.T) {
	s, _ := wrapped(t, 8)
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 2, Count: 4}, 0); err != nil {
		t.Fatal(err)
	}
	// The page copy in DRAM would be incomplete; a read must miss.
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 0, Count: 16}, 1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ReadHits != 0 || st.ReadMisses != 1 {
		t.Fatalf("stats = %+v, want a miss", st)
	}
}

func TestPartialWriteOfResidentPageKeepsItCurrent(t *testing.T) {
	s, _ := wrapped(t, 8)
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 0, Count: 16}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 4, Count: 2}, 1); err != nil {
		t.Fatal(err)
	}
	r0 := s.Device().Count.DataReads
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 0, Count: 16}, 2); err != nil {
		t.Fatal(err)
	}
	if s.Device().Count.DataReads != r0 {
		t.Fatal("read of updated resident page missed")
	}
}

func TestEvictionUnderCapacity(t *testing.T) {
	s, _ := wrapped(t, 2)
	for lpn := int64(0); lpn < 4; lpn++ {
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: lpn * 16, Count: 16}, float64(lpn)); err != nil {
			t.Fatal(err)
		}
	}
	// Pages 0 and 1 evicted; reading them misses.
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 0, Count: 16}, 10); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ReadMisses != 1 {
		t.Fatalf("stats = %+v, want a miss after eviction", st)
	}
}

func TestWritesStillReachFlash(t *testing.T) {
	// The cache must not absorb writes: flush counts (and thus the paper's
	// endurance results) are cache-independent.
	s, _ := wrapped(t, 64)
	for i := 0; i < 10; i++ {
		if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 0, Count: 16}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Device().Count.DataWrites; got != 10 {
		t.Fatalf("flash writes = %d, want 10 (write-through)", got)
	}
}

func TestWrapAcrossFTLAndResetStats(t *testing.T) {
	c := ssdconf.Tiny()
	inner, err := acrossftl.New(&c)
	if err != nil {
		t.Fatal(err)
	}
	s := Wrap(inner, 8)
	if s.Name() != "Across-FTL+cache" {
		t.Fatalf("Name = %q", s.Name())
	}
	if _, err := s.Write(trace.Request{Op: trace.OpWrite, Offset: 2056, Count: 12}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: 2060, Count: 8}, 1); err != nil {
		t.Fatal(err)
	}
	// The across-page extent is not page-complete in DRAM, so the read
	// passes through to the inner scheme (which serves it as a direct read).
	if inner.Stats().DirectReads != 1 {
		t.Fatal("inner Across-FTL did not see the read")
	}
	s.ResetStats()
	if s.Stats() != (Stats{}) || inner.Stats().DirectReads != 0 {
		t.Fatal("ResetStats did not propagate")
	}
	if s.TableBytes() != inner.TableBytes() {
		t.Fatal("TableBytes not forwarded")
	}
}

func TestCacheRejectsInvalidReads(t *testing.T) {
	s, c := wrapped(t, 4)
	if _, err := s.Read(trace.Request{Op: trace.OpRead, Offset: c.LogicalSectors(), Count: 8}, 0); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
}

func TestRandomizedConsistencyWithUncachedScheme(t *testing.T) {
	// The cache must never change which data is readable — only its cost.
	// Drive cached and uncached baselines with the same workload and compare
	// flash write counts (must match exactly: write-through) while read
	// counts may only shrink.
	c := ssdconf.Tiny()
	plain, err := ftl.NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	innerForCache, err := ftl.NewBaseline(&c)
	if err != nil {
		t.Fatal(err)
	}
	cached := Wrap(innerForCache, 16)
	rng := rand.New(rand.NewSource(21))
	region := c.LogicalSectors() / 2
	for i := 0; i < 2000; i++ {
		off := rng.Int63n(region - 40)
		count := int32(rng.Intn(32) + 1)
		now := float64(i)
		if rng.Intn(2) == 0 {
			r := trace.Request{Op: trace.OpWrite, Offset: off, Count: count, Time: now}
			if _, err := plain.Write(r, now); err != nil {
				t.Fatal(err)
			}
			if _, err := cached.Write(r, now); err != nil {
				t.Fatal(err)
			}
		} else {
			r := trace.Request{Op: trace.OpRead, Offset: off, Count: count, Time: now}
			if _, err := plain.Read(r, now); err != nil {
				t.Fatal(err)
			}
			if _, err := cached.Read(r, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	if plain.Dev.Count.DataWrites != cached.Device().Count.DataWrites {
		t.Fatalf("write-through violated: %d vs %d",
			plain.Dev.Count.DataWrites, cached.Device().Count.DataWrites)
	}
	if cached.Device().Count.DataReads > plain.Dev.Count.DataReads {
		t.Fatalf("cache increased flash reads: %d vs %d",
			cached.Device().Count.DataReads, plain.Dev.Count.DataReads)
	}
	if cached.Stats().ReadHits == 0 {
		t.Fatal("cache never hit under a hot workload")
	}
}
