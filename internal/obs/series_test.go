package obs

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"testing"

	"across/internal/snapshot"
)

// ndjson formats a series the way every reader is served it: one
// json.Encoder line per sample.
func ndjson(t testing.TB, samples []Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, samples); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// genSeries draws n samples over the given chip count. Values come from a
// pool that holds the floats a text format is likeliest to lose (±0,
// denormals, the extremes, 17-digit fractions); every so often a per-chip
// slice is nil, empty or of another length, and Custom nil, empty or filled.
func genSeries(rng *rand.Rand, n, chips int) []Sample {
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e-7, 1e21, 123456.789e3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 2,
		math.MaxFloat64, -math.MaxFloat64, math.Nextafter(1, 2)}
	f := func() float64 {
		if rng.Intn(3) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
	}
	col := func() []float64 {
		switch rng.Intn(12) {
		case 0:
			return nil
		case 1:
			return []float64{}
		case 2:
			return []float64{f()}
		}
		c := make([]float64, chips)
		for i := range c {
			c[i] = f()
		}
		return c
	}
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{
			TimeMs: f(), Requests: rng.Int63(), ReadMeanMs: f(), WriteMeanMs: f(), QueueDepth: rng.Intn(1 << 20),
			ChipBusyFrac: col(), GCDebtPages: -rng.Int63(), WAF: f(), CMTHitRate: f(), ChipBusyMs: col(),
			CumRequests: rng.Int63(), CumReads: rng.Int63(), CumWrites: rng.Int63(),
			CumReadLatSumMs: f(), CumWriteLatSumMs: f(), CumFlashReads: rng.Int63(), CumFlashWrites: rng.Int63(),
			CumErases: rng.Int63(), CumGCInvocations: rng.Int63(), CumHostPagesWritten: math.MinInt64 + rng.Int63(),
		}
		switch rng.Intn(4) {
		case 0:
			samples[i].Custom = map[string]float64{}
		case 1:
			samples[i].Custom = map[string]float64{"": f(), "b": f(), "a": f(), "ab": f(), "é\x00": f()}
		}
	}
	return samples
}

// TestSeriesRoundTrip is the codec's contract over generated series: a
// decoded series is the encoded one field for field (nil and empty apart,
// every float bit for bit), formats to the same NDJSON, and encodes to the
// same bytes again.
func TestSeriesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 7, 431} {
		for _, chips := range []int{0, 16} {
			in := genSeries(rng, n, chips)
			if n == 0 && chips == 0 {
				in = nil
			}
			blob, err := EncodeSeries(in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := DecodeSeries(blob)
			if err != nil {
				t.Fatalf("n=%d chips=%d: %v", n, chips, err)
			}
			if len(out) != len(in) {
				t.Fatalf("n=%d chips=%d: %d samples decoded", n, chips, len(out))
			}
			// DeepEqual tells nil from empty; the bits of every float (it calls
			// +0 and -0 equal) are held by the re-encoding below.
			for i := range in {
				if !reflect.DeepEqual(in[i], out[i]) {
					t.Fatalf("n=%d chips=%d: sample %d\n got %+v\nwant %+v", n, chips, i, out[i], in[i])
				}
			}
			if got, want := ndjson(t, out), ndjson(t, in); !bytes.Equal(got, want) {
				t.Fatalf("n=%d chips=%d: decoded series formats to %d bytes, the original to %d", n, chips, len(got), len(want))
			}
			again, err := EncodeSeries(out)
			if err != nil || !bytes.Equal(again, blob) {
				t.Fatalf("n=%d chips=%d: re-encoding the decoded series: %v, %d bytes, want the same %d", n, chips, err, len(again), len(blob))
			}
			if twice, _ := EncodeSeries(in); !bytes.Equal(twice, blob) {
				t.Fatalf("n=%d chips=%d: two encodings of one series differ", n, chips)
			}
		}
	}
}

// TestSeriesDecodedSlicesAreCapped: a decoded sample's per-chip slices share
// one allocation, and an append to one must not write into the next.
func TestSeriesDecodedSlicesAreCapped(t *testing.T) {
	in := []Sample{{ChipBusyFrac: []float64{1, 2}, ChipBusyMs: []float64{3, 4}}, {ChipBusyMs: []float64{5}}}
	blob, err := EncodeSeries(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSeries(blob)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(out[0].ChipBusyFrac, 99)
	_ = append(out[0].ChipBusyMs, 99)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("an append reached a neighbouring slice: %+v", out)
	}
}

// TestStoredSeriesStillLoads: testdata/series-v1.axss is a sibling a daemon
// wrote for a real job and series-v1.ndjson what it served for it. Format
// version 1 must keep reading the one as the other, and writing it the same.
func TestStoredSeriesStillLoads(t *testing.T) {
	blob, want := goldenSeries(t)
	samples, err := DecodeSeries(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := ndjson(t, samples); !bytes.Equal(got, want) {
		t.Fatalf("the stored series formats to %d bytes, it was served as %d", len(got), len(want))
	}
	if again, err := EncodeSeries(samples); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("re-encoding the stored series: %v, %d bytes, stored %d", err, len(again), len(blob))
	}
}

func goldenSeries(t testing.TB) (blob, served []byte) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "series-v1.axss"))
	if err != nil {
		t.Fatal(err)
	}
	served, err = os.ReadFile(filepath.Join("testdata", "series-v1.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return blob, served
}

// sealWords seals a body of one i64 slab, as a forger of series would.
func sealWords(t testing.TB, magic string, words ...int64) []byte {
	t.Helper()
	enc := snapshot.NewRawContainer(magic, seriesVersion)
	enc.I64s(words)
	blob, err := enc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// forgedSeries are well-sealed containers that are not series; the test and
// the fuzz target both start from them.
func forgedSeries(t testing.TB) map[string][]byte {
	zeros := make([]int64, seriesWords)
	sample := func(edit func(w []int64)) []int64 {
		w := append([]int64{1}, zeros...)
		edit(w)
		return w
	}
	golden, _ := goldenSeries(t)
	return map[string][]byte{
		"no words":             sealWords(t, seriesMagic),
		"count beyond words":   sealWords(t, seriesMagic, 1<<40),
		"count negative":       sealWords(t, seriesMagic, -1),
		"count one short":      sealWords(t, seriesMagic, append([]int64{2}, zeros...)...),
		"chip length huge":     sealWords(t, seriesMagic, sample(func(w []int64) { w[1+18] = math.MaxInt64 })...),
		"chip length -2":       sealWords(t, seriesMagic, sample(func(w []int64) { w[1+19] = -2 })...),
		"chip values unowned":  sealWords(t, seriesMagic, append(sample(func([]int64) {}), 7)...),
		"custom without bytes": sealWords(t, seriesMagic, sample(func(w []int64) { w[1+20] = 1 << 50 })...),
		"custom length -2":     sealWords(t, seriesMagic, sample(func(w []int64) { w[1+20] = -2 })...),
		"trailing bytes":       append(bytes.Clone(golden), 0),
		"another container":    sealWords(t, "AXSN", 0),
		"deflated zero series": deflated(t, sealWords(t, seriesMagic, 0)),
	}
}

// TestSeriesDecodeRejects: what is not a whole, intact series is refused with
// one of the snapshot package's typed errors and yields no samples.
func TestSeriesDecodeRejects(t *testing.T) {
	typed := func(err error) bool {
		return errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrTruncated) ||
			errors.Is(err, snapshot.ErrFormat) || errors.Is(err, snapshot.ErrVersion)
	}
	cases := forgedSeries(t)
	delete(cases, "deflated zero series") // Open reads either flag: an empty series, sealed the other way
	golden, _ := goldenSeries(t)
	for _, cut := range []int{0, 3, 51, 52, 60, len(golden) / 2, len(golden) - 1} {
		cases[fmt.Sprintf("cut at %d", cut)] = golden[:cut]
	}
	for _, at := range []int{0, 5, 9, 13, 30, 52, 60, len(golden) - 1} {
		b := bytes.Clone(golden)
		b[at] ^= 1
		cases[fmt.Sprintf("bit flipped at %d", at)] = b
	}
	unsorted := snapshot.NewRawContainer(seriesMagic, seriesVersion)
	w := append([]int64{1}, make([]int64, seriesWords)...)
	w[1+18], w[1+19], w[1+20] = -1, -1, 2
	unsorted.I64s(w)
	for _, k := range []string{"b", "a"} {
		unsorted.Str(k)
		unsorted.F64(1)
	}
	cases["custom keys descending"], _ = unsorted.Finish()
	for name, blob := range cases {
		samples, err := DecodeSeries(blob)
		if err == nil || !typed(err) || samples != nil {
			t.Errorf("%s: %d samples, error %v; want none and a typed snapshot error", name, len(samples), err)
		}
	}
	if samples, err := DecodeSeries(forgedSeries(t)["deflated zero series"]); err != nil || len(samples) != 0 {
		t.Errorf("a compressed container of an empty series: %d samples, %v", len(samples), err)
	}
}

// TestSeriesTamperSweep: one byte flipped per 4 KiB of a stored series, and a
// cut at every 4 KiB, raw as a job stores it and compressed as Open also
// reads it (where the words arrive before the digest is checked): a typed
// refusal every time, never samples.
func TestSeriesTamperSweep(t *testing.T) {
	golden, _ := goldenSeries(t)
	compressed := deflated(t, golden)
	if samples, err := DecodeSeries(compressed); err != nil || len(samples) == 0 {
		t.Fatalf("the golden series, compressed: %d samples, %v", len(samples), err)
	}
	for _, blob := range [][]byte{golden, compressed} {
		refused := func(what string, damaged []byte) {
			t.Helper()
			samples, err := DecodeSeries(damaged)
			if samples != nil || (!errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrTruncated)) {
				t.Errorf("%s of %d: %d samples, err %v; want none and ErrCorrupt or ErrTruncated", what, len(blob), len(samples), err)
			}
		}
		for at := 52; at < len(blob); at += 4096 {
			flipped := bytes.Clone(blob)
			flipped[at] ^= 0x20
			refused(fmt.Sprintf("byte %d flipped", at), flipped)
		}
		for cut := 0; cut < len(blob); cut += 4096 {
			refused(fmt.Sprintf("cut at %d", cut), blob[:cut])
		}
		refused("last byte cut", blob[:len(blob)-1])
	}
}

// FuzzSeriesDecode: a hostile blob is refused with a typed error, never a
// panic, and decoding allocates in proportion to the bytes present; a blob
// that decodes re-encodes to itself. Seeds: a real sibling, forged counts and
// lengths, a raw container with trailing bytes.
func FuzzSeriesDecode(f *testing.F) {
	golden, _ := goldenSeries(f)
	f.Add(golden)
	for _, blob := range forgedSeries(f) {
		f.Add(blob)
	}
	huge := bytes.Clone(golden[:60])
	binary.LittleEndian.PutUint64(huge[12:], 1<<30) // the header claims a 1 GiB body
	f.Add(huge)
	// The golden series many times over in a compressed container, where words
	// arrive split across the codec's window, and a word count the header's
	// length allows but the payload present could never inflate to.
	samples, err := DecodeSeries(golden)
	if err != nil {
		f.Fatal(err)
	}
	var many []Sample
	for range 20 {
		many = append(many, samples...)
	}
	raw, err := EncodeSeries(many)
	if err != nil {
		f.Fatal(err)
	}
	wideBlob := deflated(f, raw)
	if back, err := DecodeSeries(wideBlob); err != nil || len(back) != len(many) || len(raw) < 300<<10 {
		f.Fatalf("wide seed: %d samples in %d bytes, %v", len(back), len(raw), err)
	}
	f.Add(wideBlob)
	claims := snapshot.NewRawContainer(seriesMagic, seriesVersion)
	claims.I64(1 << 27)
	claims.I64(1 << 20)
	claimsRaw, _ := claims.Finish()
	claimsBlob := deflated(f, claimsRaw)
	binary.LittleEndian.PutUint64(claimsBlob[12:], 8+8<<27)
	f.Add(claimsBlob)
	f.Fuzz(func(t *testing.T, blob []byte) {
		samples, err := DecodeSeries(blob)
		if err != nil {
			if samples != nil {
				t.Fatalf("%d samples beside error %v", len(samples), err)
			}
			if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrTruncated) &&
				!errors.Is(err, snapshot.ErrFormat) && !errors.Is(err, snapshot.ErrVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// A Sample is 200 bytes against the 168 of its record.
		if len(samples)*seriesWords*8 > len(blob)*1032 {
			t.Fatalf("%d samples out of %d bytes", len(samples), len(blob))
		}
		again, err := EncodeSeries(samples)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSeries(again)
		if err != nil || !bytes.Equal(ndjsonOrNil(back), ndjsonOrNil(samples)) {
			t.Fatalf("accepted series does not survive a second trip: %v", err)
		}
	})
}

// ndjsonOrNil formats what json can (a fuzzed float may be NaN or ±Inf).
func ndjsonOrNil(samples []Sample) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range samples {
		if enc.Encode(&samples[i]) != nil {
			return nil
		}
	}
	return buf.Bytes()
}

// TestSeriesCodecAllocations: encoding allocates per series, not per sample
// — ten times the samples, the same handful of allocations and one more per
// 256 KiB piece of a container whose length is not known up front (plus the
// list of them) — and decoding allocates the samples, their per-chip values
// and nothing per sample.
func TestSeriesCodecAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts under -race are the detector's")
	}
	series := func(n int) []Sample {
		s := make([]Sample, n)
		for i := range s {
			busy := make([]float64, 32)
			s[i] = Sample{TimeMs: float64(i), ChipBusyMs: busy[:16:16], ChipBusyFrac: busy[16:]}
		}
		return s
	}
	small, large := series(431), series(4310)
	var blob []byte
	enc := func(s []Sample) float64 {
		return testing.AllocsPerRun(10, func() { blob, _ = EncodeSeries(s) })
	}
	if a, b := enc(small), enc(large); a > 12 || b > a+float64(len(blob)>>18)+4 {
		t.Errorf("EncodeSeries allocates %v times for 431 samples and %v for the %d bytes of 4310; want a handful, and one more per 256 KiB", a, b, len(blob))
	}
	if a := testing.AllocsPerRun(10, func() { _, _ = DecodeSeries(blob) }); a > 8 {
		t.Errorf("DecodeSeries allocates %v times for 4310 samples; want a handful", a)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

func benchSeries(b *testing.B) ([]Sample, []byte) {
	samples := genSeries(rand.New(rand.NewSource(1)), 431, 16)
	for i := range samples {
		samples[i].Custom = nil // nothing sets Custom on a daemon's samples
	}
	blob, err := EncodeSeries(samples)
	if err != nil {
		b.Fatal(err)
	}
	return samples, blob
}

func BenchmarkSeriesEncode(b *testing.B) {
	samples, blob := benchSeries(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSeries(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeriesDecode(b *testing.B) {
	_, blob := benchSeries(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSeries(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeriesFormat is the cost EncodeSeries took out of every job: the
// same series through json.Encoder.
func BenchmarkSeriesFormat(b *testing.B) {
	samples, _ := benchSeries(b)
	b.SetBytes(int64(len(ndjson(b, samples))))
	for i := 0; i < b.N; i++ {
		ndjson(b, samples)
	}
}

// deflated re-seals a raw container with its body DEFLATE-compressed (flag
// bit 0): the form earlier releases wrote, which Open still reads.
func deflated(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	out := bytes.NewBuffer(bytes.Clone(raw[:52]))
	binary.LittleEndian.PutUint32(out.Bytes()[8:], 1)
	fw, err := flate.NewWriter(out, flate.BestSpeed)
	if err != nil {
		tb.Fatal(err)
	}
	fw.Write(raw[52:])
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}
