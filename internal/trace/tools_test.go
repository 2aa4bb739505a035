package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleTrace() []Request {
	return []Request{
		{Time: 0, Op: OpWrite, Offset: 2056, Count: 12},  // across write
		{Time: 10, Op: OpRead, Offset: 2060, Count: 8},   // across read
		{Time: 20, Op: OpWrite, Offset: 2048, Count: 16}, // aligned write
		{Time: 30, Op: OpRead, Offset: 0, Count: 4},      // unaligned read
		{Time: 40, Op: OpWrite, Offset: 4096, Count: 32}, // aligned write
	}
}

func TestWindowRebasesTime(t *testing.T) {
	reqs := sampleTrace()
	w := Window(reqs, 10, 40)
	if len(w) != 3 {
		t.Fatalf("window = %d requests, want 3", len(w))
	}
	if w[0].Time != 0 || w[2].Time != 20 {
		t.Fatalf("window not rebased: %v, %v", w[0].Time, w[2].Time)
	}
}

func TestConcatRebasesSequentially(t *testing.T) {
	a := []Request{{Time: 0, Op: OpWrite, Offset: 0, Count: 8}, {Time: 5, Op: OpWrite, Offset: 8, Count: 8}}
	b := []Request{{Time: 0, Op: OpRead, Offset: 16, Count: 8}}
	out := Concat(100, a, b)
	if len(out) != 3 {
		t.Fatalf("Concat len = %d", len(out))
	}
	if out[2].Time != 105 {
		t.Fatalf("second trace starts at %v, want 105 (5 + gap 100)", out[2].Time)
	}
}

func TestInterleaveSortsByTime(t *testing.T) {
	a := []Request{{Time: 0, Offset: 1, Count: 1}, {Time: 20, Offset: 2, Count: 1}}
	b := []Request{{Time: 10, Offset: 3, Count: 1}, {Time: 30, Offset: 4, Count: 1}}
	out := Interleave(a, b)
	wantOffsets := []int64{1, 3, 2, 4}
	for i, w := range wantOffsets {
		if out[i].Offset != w {
			t.Fatalf("Interleave order = %v", out)
		}
	}
}

func TestShiftOffsets(t *testing.T) {
	reqs := sampleTrace()
	shifted := ShiftOffsets(reqs, 1000)
	if shifted[0].Offset != 3056 {
		t.Fatalf("shift failed: %d", shifted[0].Offset)
	}
	if reqs[0].Offset != 2056 {
		t.Fatal("ShiftOffsets mutated input")
	}
}

// Property: Window ∘ Concat of disjoint windows recovers the pieces, and
// Interleave preserves every request exactly once.
func TestToolsConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b []Request
		ta, tb := 0.0, 0.0
		for i := 0; i < 30; i++ {
			ta += rng.Float64() * 5
			tb += rng.Float64() * 5
			a = append(a, Request{Time: ta, Offset: rng.Int63n(1000), Count: 1 + rng.Int31n(8)})
			b = append(b, Request{Time: tb, Offset: rng.Int63n(1000), Count: 1 + rng.Int31n(8)})
		}
		merged := Interleave(a, b)
		if len(merged) != len(a)+len(b) {
			return false
		}
		for i := 1; i < len(merged); i++ {
			if merged[i].Time < merged[i-1].Time {
				return false
			}
		}
		// Sector volume is conserved by all tools.
		vol := func(rs []Request) int64 {
			var v int64
			for _, r := range rs {
				v += int64(r.Count)
			}
			return v
		}
		if vol(merged) != vol(a)+vol(b) {
			return false
		}
		return vol(ShiftOffsets(merged, 5000)) == vol(merged)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
