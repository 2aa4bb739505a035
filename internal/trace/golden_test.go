package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"across/internal/ssdconf"
	"across/internal/trace"
	"across/internal/workload"
)

// generated is lun1 at the given scale on the Experiment device.
func generated(tb testing.TB, scale float64) []trace.Request {
	tb.Helper()
	p, err := workload.LunProfile("lun1")
	if err != nil {
		tb.Fatal(err)
	}
	conf := ssdconf.Experiment()
	reqs, err := workload.Generate(p.Scale(scale), conf.LogicalSectors())
	if err != nil {
		tb.Fatal(err)
	}
	return reqs
}

// millis returns a request time the Writer divides down to exactly secs,
// or secs*1000 when no time within a few ulps of it does.
func millis(secs float64) float64 {
	t := secs * 1000
	for lo, hi, i := t, t, 0; i < 4; i++ {
		if lo/1000 == secs {
			return lo
		}
		if hi/1000 == secs {
			return hi
		}
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
	}
	return t
}

// TestGoldenCSV pins the SYSTOR CSV the Writer emits, byte for byte, for a
// generated trace and for timestamps at the edges of the %.6f format:
// zeroes of both signs, sub-microsecond values, exact half-microsecond
// ties, a rounding carry, the largest fast-path magnitudes, and values no
// fixed-point shortcut can hold.
func TestGoldenCSV(t *testing.T) {
	awkward := []float64{
		0, math.Copysign(0, -1), 5e-7, 1.5e-6, 2.5e-6, 9.9999995, 8.9999999e9,
		1e300, math.NaN(), math.Inf(1),
		// Exact ties: x*1e6 is k+0.5 just when x is an odd multiple of 1/128.
		1.0 / 128, 3.0 / 128, 1234567 + 5.0/128, 8999999999 + 127.0/128,
	}
	for _, c := range []struct {
		name string
		reqs []trace.Request
		want string
	}{
		{"lun1x0.01", generated(t, 0.01),
			"ef59dc89c0da634a0d588b824613d47047113aaf82de370882e5b8e2baf4d793"},
		{"awkward", func() (out []trace.Request) {
			for i, s := range awkward {
				out = append(out, trace.Request{Time: millis(s), Op: trace.Op(i % 2), Offset: int64(i), Count: 1})
			}
			return out
		}(), "ad2f60f3f97a6c7c0da559319fb21af141eb3060ef886779c787ba71ca1fdf73"},
	} {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf, 1)
		for _, r := range c.reqs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// BenchmarkWriteTrace writes lun1 at scale 0.4 (300 k requests, the CSV
// the benchmark module's study-cold workload parses) as SYSTOR CSV into
// memory.
func BenchmarkWriteTrace(b *testing.B) {
	reqs := generated(b, 0.4)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := trace.NewWriter(&buf, 1)
		for _, r := range reqs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(reqs))/b.Elapsed().Seconds(), "lines/s")
}
