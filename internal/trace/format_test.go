package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strconv"
	"strings"
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

// TestAppendMicrosMatchesStrconv checks the fixed-point timestamp against
// strconv on random values of every magnitude, on the neighbours of values
// at the edges of its domain and of the rounding, and on every kind of
// exact half-microsecond tie.
func TestAppendMicrosMatchesStrconv(t *testing.T) {
	const limit = (1 << 53) / 1e6
	xs := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, limit, 5e-7, 1.5e-6, 2.5e-6,
		9.9999995, 0.9999995, 999999.9999995, 8.9999999e9, 1, 1e-6, 1e-7, 1e300,
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20_000; i++ {
		if i%8 == 0 { // strconv is slow on most of these, so fewer
			xs = append(xs, math.Float64frombits(rng.Uint64()))
		}
		xs = append(xs,
			rng.Float64()*limit,
			math.Ldexp(rng.Float64(), rng.Intn(60)-40),
			// A tie: an odd multiple of 1/128, the only dyadic k+0.5 micros.
			float64(2*rng.Int63n(1<<39)+1)/128)
	}
	// Adjacent ulps around each value so far, in both directions.
	for _, x := range xs[:len(xs):len(xs)] {
		up, down := x, x
		for j := 0; j < 2; j++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			xs = append(xs, up, down)
		}
	}
	for _, x := range xs {
		if got, want := appendMicros(nil, x), strconv.AppendFloat(nil, x, 'f', 6, 64); !bytes.Equal(got, want) {
			t.Fatalf("appendMicros(%v) = %s, strconv gives %s", x, got, want)
		}
	}
}

// FuzzAppendMicros: any float64 formats as strconv formats it, after
// whatever a caller had already appended.
func FuzzAppendMicros(f *testing.F) {
	for _, x := range []float64{0, 5e-7, 1.0 / 128, 9.9999995, 8.9999999e9, 1e300} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		x := math.Float64frombits(u)
		got := appendMicros([]byte("x,"), x)
		want := strconv.AppendFloat([]byte("x,"), x, 'f', 6, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendMicros(%#x) = %s, strconv gives %s", u, got, want)
		}
	})
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

// decimalFast reports whether decimal should read s, a run of digits with at
// most one '.': 1 to 19 digits, a mantissa below 2^53 and at most 22 of the
// digits after the point.
func decimalFast(s string) bool {
	whole, frac, _ := strings.Cut(s, ".")
	m, err := strconv.ParseUint(whole+frac, 10, 64)
	return err == nil && len(whole+frac) <= 19 && m < 1<<53 && len(frac) <= 22
}

// TestTimestampMatchesParseFloat checks the timestamp kernel against
// strconv.ParseFloat, bit for bit, on random decimals of every length of
// integer part and fraction, and on the values either side of where it
// hands a timestamp to the field path: a mantissa at 2^53, 19 and 20
// digits, and 22 and 23 fraction digits.
func TestTimestampMatchesParseFloat(t *testing.T) {
	digits := func(rng *rand.Rand, n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	var cases []string
	rng := rand.New(rand.NewSource(11))
	for whole := 0; whole <= 20; whole++ {
		for frac := 0; frac <= 24; frac++ {
			for i := 0; i < 40; i++ {
				s := digits(rng, whole)
				if frac > 0 || i%2 == 1 {
					s += "." + digits(rng, frac)
				}
				cases = append(cases, s)
			}
		}
	}
	// Decimal points through 2^53-1, 2^53 and 2^53+1, with and without
	// leading zeros; the longest runs and fractions on either side.
	for _, m := range []string{"9007199254740991", "9007199254740992", "9007199254740993", "999999999999999", "1000000000000000"} {
		for dot := 0; dot <= len(m); dot++ {
			cases = append(cases, m[:dot]+"."+m[dot:], "000"+m[:dot]+"."+m[dot:])
		}
		cases = append(cases, m)
	}
	cases = append(cases,
		"0", "0.", ".0", "1.", ".5", "00", "0.0000000000000000000001", "0.00000000000000000000001",
		"0000000000000000001", "00000000000000000001", "1455276421.123456", "1455276421.1234567",
		"4503599627370495.5", "4503599627370496.5", ".0000000000000000000009", "123456789.0123456789")
	accepted := 0
	for _, s := range cases {
		got, n := decimal([]byte(s))
		if fast := decimalFast(s); fast != (n == len(s)) || !fast && n != -1 {
			t.Fatalf("decimal(%q) read %d bytes; fast path expected: %v", s, n, fast)
		}
		if n < 0 {
			continue
		}
		accepted++
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("decimal(%q) = %v (%#x), ParseFloat gives %v (%#x), %v",
				s, got, math.Float64bits(got), want, math.Float64bits(want), err)
		}
	}
	if accepted < len(cases)/4 {
		t.Fatalf("the kernel read only %d of %d decimals", accepted, len(cases))
	}
}

// FuzzTimestampMatchesParseFloat: whatever prefix of the input the
// timestamp kernel reads, strconv.ParseFloat reads to the same float64.
func FuzzTimestampMatchesParseFloat(f *testing.F) {
	for _, s := range []string{"0", "1455276421.123456,", "9007199254740991", "9007199254740992",
		"900719925474099.3", "0.0000000000000000000001", "0.00000000000000000000001",
		"0000000000000000001", "00000000000000000001", "1.2.3", ".5x", "1e3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, n := decimal([]byte(s))
		if n < 0 {
			return
		}
		want, err := strconv.ParseFloat(s[:n], 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("decimal read %q as %v, ParseFloat gives %v, %v", s[:n], got, want, err)
		}
	})
}
