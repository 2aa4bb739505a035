package mrsm

import (
	"bytes"
	"math/rand"
	"testing"

	"across/internal/obs"
	"across/internal/snapshot"
	"across/internal/ssdconf"
	"across/internal/trace"
)

// cacheLog records every mapping-cache access a scheme reports.
type cacheLog struct {
	obs.Nop
	hits []bool
}

func (l *cacheLog) CacheAccess(_ obs.CacheKind, hit bool, _ float64) { l.hits = append(l.hits, hit) }

// TestRehitMatchesLookup pins the node-run fast path to the full lookup it
// skips: the same requests, served once with every sub-page's node looked
// up (a nil run) and once through Write and Read, must end with the same
// completion times, cache statistics, device counters, cache-event stream
// and scheme state. Two resident nodes out of 64, requests that often
// cross a node boundary and enough writes to collect garbage many times
// over put misses, dirty evictions and node checkpoints between the
// touches of one request; the test asserts each of them happened.
func TestRehitMatchesLookup(t *testing.T) {
	c := ssdconf.Tiny()
	c.BlocksPerPlane, c.PagesPerBlock = 64, 32
	c.DRAMBudgetBytes = int64(2 * nodeEntries * c.MRSMEntryBytes)
	build := func() (*Scheme, *cacheLog) {
		s, err := New(&c)
		if err != nil {
			t.Fatal(err)
		}
		l := &cacheLog{}
		s.Dev.SetTracer(l)
		return s, l
	}
	slow, slowLog := build()
	fast, fastLog := build()
	rng := rand.New(rand.NewSource(5))
	sectors := c.LogicalSectors()
	for i := 0; i < 3000; i++ {
		count := rng.Int31n(600) + 1
		r := trace.Request{Time: float64(i), Offset: rng.Int63n(sectors - int64(count)), Count: count, Op: trace.OpRead}
		if rng.Intn(10) < 6 {
			r.Op = trace.OpWrite
		}
		var want, got float64
		var werr, gerr error
		if r.Op == trace.OpWrite {
			want, werr = slow.write(r, r.Time, nil)
			got, gerr = fast.Write(r, r.Time)
		} else {
			want, werr = slow.read(r, r.Time, nil)
			got, gerr = fast.Read(r, r.Time)
		}
		if werr != nil || gerr != nil {
			t.Fatalf("request %d (%v): %v / %v", i, r, werr, gerr)
		}
		if got != want {
			t.Fatalf("request %d (%v) done at %v, full lookups %v", i, r, got, want)
		}
	}
	if slow.CMTStats() != fast.CMTStats() {
		t.Errorf("CMT stats %+v, full lookups %+v", fast.CMTStats(), slow.CMTStats())
	}
	if slow.Dev.Count != fast.Dev.Count {
		t.Errorf("counters %+v, full lookups %+v", fast.Dev.Count, slow.Dev.Count)
	}
	if len(slowLog.hits) != len(fastLog.hits) {
		t.Errorf("%d cache events, full lookups %d", len(fastLog.hits), len(slowLog.hits))
	} else {
		for i := range slowLog.hits {
			if slowLog.hits[i] != fastLog.hits[i] {
				t.Fatalf("cache event %d: hit %v, full lookups %v", i, fastLog.hits[i], slowLog.hits[i])
			}
		}
	}
	snap := func(s *Scheme) []byte {
		enc := snapshot.NewEncoder()
		if err := s.SnapshotState(enc); err != nil {
			t.Fatal(err)
		}
		b, err := enc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(snap(slow), snap(fast)) {
		t.Error("scheme state diverged from the full lookups'")
	}
	// Map writes past the dirty evictions are node checkpoints.
	st, n := slow.CMTStats(), slow.Dev.Count
	t.Logf("%+v, %d erases, %d map writes", st, n.Erases, n.MapWrites)
	if st.Misses == 0 || st.DirtyEvicts == 0 || n.MapWrites <= st.DirtyEvicts || n.Erases == 0 {
		t.Fatalf("stats %+v, %d map writes, %d erases: the workload misses a path the fast path must survive",
			st, n.MapWrites, n.Erases)
	}
}
