package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
)

// syntheticCSV renders n requests the way a VDI LUN trace looks: rising
// timestamps, 4 KiB-grained offsets into a 32 GiB volume, sizes up to 64 KiB.
func syntheticCSV(tb testing.TB, n int, msr bool) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.ExpFloat64() * 3
		r := Request{Time: now, Op: Op(rng.Intn(2)), Offset: rng.Int63n(1<<23) * 8, Count: 1 + rng.Int31n(128)}
		if msr {
			fmt.Fprintf(&buf, "%d,hm,0,%s,%d,%d,%d\n", 128166372003061629+int64(now*1e4),
				[]string{"Read", "Write"}[r.Op], r.Offset*512, int64(r.Count)*512, 1000+i%977)
		} else if err := w.Write(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadAllAllocations locks the reader's allocation shape: a handful per
// trace (the text, the result, the sniffed line), none per line.
func TestReadAllAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const lines = 10_000
	for _, msr := range []bool{false, true} {
		data := syntheticCSV(t, lines, msr)
		rd := bytes.NewReader(data)
		allocs := testing.AllocsPerRun(5, func() {
			rd.Reset(data)
			reqs, err := ReadAllAuto(rd)
			if err != nil || len(reqs) != lines {
				t.Fatalf("msr=%v: parsed %d of %d lines: %v", msr, len(reqs), lines, err)
			}
		})
		if allocs > 8 {
			t.Errorf("msr=%v: %v allocations for %d lines, want at most 8 in total", msr, allocs, lines)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race, under
// which allocation counts are the detector's as much as the code's.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// TestWriterMatchesSprintf: the hand-built line is byte for byte what the
// format string it replaced produced.
func TestWriterMatchesSprintf(t *testing.T) {
	reqs := []Request{
		{},
		{Time: 1, Op: OpWrite, Offset: 1, Count: 1},
		{Time: math.Copysign(0, -1), Op: OpRead, Offset: 8, Count: 8},
		{Time: -0.0004, Op: OpRead, Offset: 8, Count: 8},
		{Time: 0.0005, Op: OpWrite},
		{Time: 1e18, Op: OpWrite, Offset: math.MaxInt64 / 512, Count: math.MaxInt32},
		{Time: 1.5e18 + 12345, Op: OpRead, Offset: 123456789, Count: 33},
		{Time: 1e300, Op: OpWrite, Offset: -3, Count: -7},
		{Time: math.Inf(1)}, {Time: math.Inf(-1)}, {Time: math.NaN()},
		{Time: math.SmallestNonzeroFloat64}, {Time: 999.9999995}, {Time: 1455276421123.456},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		reqs = append(reqs, Request{
			Time:   math.Float64frombits(rng.Uint64()),
			Op:     Op(rng.Intn(2)),
			Offset: rng.Int63() >> uint(rng.Intn(64)),
			Count:  rng.Int31() >> uint(rng.Intn(32)),
		}, Request{Time: rng.Float64() * 1e9, Op: OpWrite, Offset: rng.Int63n(1 << 30), Count: 1 + rng.Int31n(256)})
	}
	for _, lun := range []int{0, 6, -2} {
		var got bytes.Buffer
		w := NewWriter(&got, lun)
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%.6f,%.6f,%s,%d,%d,%d\n",
				r.Time/1000, 0.0, r.Op, lun, r.Offset*512, int64(r.Count)*512)
			if got.String() != want {
				t.Fatalf("lun %d, %+v: wrote %q, Sprintf gives %q", lun, r, got.String(), want)
			}
			got.Reset()
		}
	}
}

// BenchmarkReadAllAuto parses a lun1-sized SYSTOR trace (300 k requests)
// and an MSR one from memory, format sniffing included.
func BenchmarkReadAllAuto(b *testing.B) {
	for _, msr := range []bool{false, true} {
		name := "systor"
		if msr {
			name = "msr"
		}
		b.Run(name, func(b *testing.B) {
			data := syntheticCSV(b, 300_000, msr)
			rd := bytes.NewReader(data)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(data)
				if _, err := ReadAllAuto(rd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
