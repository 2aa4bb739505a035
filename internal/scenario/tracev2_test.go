package scenario

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"across/internal/snapshot"
	"across/internal/trace"
)

func sampleStream(t *testing.T) *Stream {
	t.Helper()
	sc, err := Builtin("mixed")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Scale(0.001).Generate(testSectors)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestTraceV2RoundTrip(t *testing.T) {
	st := sampleStream(t)
	blob, err := EncodeStream(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStream(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != st.Scenario || got.LogicalSectors != st.LogicalSectors {
		t.Fatalf("metadata drift: %+v vs %+v", got, st)
	}
	if len(got.Cohorts) != len(st.Cohorts) {
		t.Fatalf("cohort count drift: %d vs %d", len(got.Cohorts), len(st.Cohorts))
	}
	for i := range got.Cohorts {
		if got.Cohorts[i] != st.Cohorts[i] {
			t.Fatalf("cohort %d drift: %+v vs %+v", i, got.Cohorts[i], st.Cohorts[i])
		}
	}
	if len(got.Requests) != len(st.Requests) {
		t.Fatalf("request count drift: %d vs %d", len(got.Requests), len(st.Requests))
	}
	for i := range got.Requests {
		if got.Requests[i] != st.Requests[i] {
			t.Fatalf("request %d drift: %+v vs %+v", i, got.Requests[i], st.Requests[i])
		}
	}
	// Encode→decode→encode reproduces the container byte for byte.
	blob2, err := EncodeStream(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encode not byte-identical")
	}
}

func TestTraceV2RejectsBadInput(t *testing.T) {
	st := sampleStream(t)
	blob, err := EncodeStream(st)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeStream(blob[:10]); !errors.Is(err, snapshot.ErrTruncated) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		bad := append([]byte("AXSN"), blob[4:]...)
		if _, err := DecodeStream(bad); !errors.Is(err, snapshot.ErrFormat) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := bytes.Clone(blob)
		bad[4] = 99
		if _, err := DecodeStream(bad); !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("flipped body bit", func(t *testing.T) {
		bad := bytes.Clone(blob)
		bad[len(bad)-1] ^= 0x40
		if _, err := DecodeStream(bad); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("not a container at all", func(t *testing.T) {
		if _, err := DecodeStream([]byte("definitely not a trace container, just text padding")); err == nil {
			t.Fatal("accepted garbage")
		}
	})
}

func FuzzTraceV2Decode(f *testing.F) {
	// Seed with a real container, its truncations, and light mutations.
	sc, err := Builtin("burst")
	if err != nil {
		f.Fatal(err)
	}
	st, err := sc.Scale(0.0005).Generate(testSectors)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := EncodeStream(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:52])
	f.Add([]byte("AXT2"))
	f.Add([]byte{})
	mut := bytes.Clone(blob)
	mut[30] ^= 0xff
	f.Add(mut)
	f.Add(forgedContainer(f, 2, 8))
	f.Add(forgedContainer(f, 1, 0))
	// Records split across the codec's window, and a record count the
	// header's length allows but the payload present could never inflate to.
	wide := &Stream{Scenario: "wide", LogicalSectors: testSectors, Requests: make([]trace.Request, 40000)}
	for i := range wide.Requests {
		wide.Requests[i] = trace.Request{Time: float64(i), Op: trace.Op(i & 1), Offset: int64(i) * 8, Count: 1 + int32(i%64)}
	}
	wideBlob, err := EncodeStream(wide)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wideBlob)
	claims := snapshot.NewRawContainer(TraceV2Magic, TraceV2Version)
	claims.Tag("meta")
	claims.Str("claims")
	claims.I64(testSectors)
	claims.I64(0)
	claims.Tag("reqs")
	claims.I64(1 << 26)
	claimsRaw, err := claims.Finish()
	if err != nil {
		f.Fatal(err)
	}
	claimsBlob := deflated(f, claimsRaw)
	binary.LittleEndian.PutUint64(claimsBlob[12:], 1<<31)
	f.Add(claimsBlob)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeStream(data)
		if err != nil {
			return // rejection is fine; panics and hangs are the bug class
		}
		// Accepted containers must round-trip to identical bytes.
		re, err := EncodeStream(st)
		if err != nil {
			t.Fatalf("accepted stream failed to re-encode: %v", err)
		}
		back, err := DecodeStream(re)
		if err != nil {
			t.Fatalf("re-encoded container rejected: %v", err)
		}
		if !slices.Equal(back.Requests, st.Requests) {
			t.Fatalf("round trip changed the requests (%d vs %d)", len(back.Requests), len(st.Requests))
		}
	})
}

// forgedContainer seals, with a correct checksum, a one-tenant stream whose
// second request carries the given op byte and count: what an attacker who
// recomputes the SHA-256 can hand the decoder.
func forgedContainer(tb testing.TB, op uint8, count int32) []byte {
	tb.Helper()
	e := snapshot.NewRawContainer(TraceV2Magic, TraceV2Version)
	e.Tag("meta")
	e.Str("forged")
	e.I64(testSectors)
	e.I64(0)
	e.Tag("reqs")
	e.I64(2)
	for i, rec := range []struct {
		op    uint8
		count int32
	}{{1, 8}, {op, count}} {
		e.F64(float64(i))
		e.U8(rec.op)
		e.I64(int64(i) * 64)
		e.I32(rec.count)
	}
	blob, err := e.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return deflated(tb, blob)
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

// TestTraceV2RejectsUnwritableRecords: an op byte other than 0/1 or a
// non-positive count is refused at decode, by record index, even though the
// container's checksum is right.
func TestTraceV2RejectsUnwritableRecords(t *testing.T) {
	if st, err := DecodeStream(forgedContainer(t, 0, 1)); err != nil || len(st.Requests) != 2 {
		t.Fatalf("well-formed hand-built container: %v", err)
	}
	for _, tc := range []struct {
		op    uint8
		count int32
	}{{2, 8}, {255, 8}, {1, 0}, {0, -4}} {
		_, err := DecodeStream(forgedContainer(t, tc.op, tc.count))
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "request 1") {
			t.Errorf("op %d count %d: got %v, want ErrCorrupt naming request 1", tc.op, tc.count, err)
		}
	}
}

// TestTraceV2CountAtInt32Max: the largest count a Request holds survives the
// record's i32 column both ways, and a recorded trace's request that outgrows
// its partition is clamped to the partition, not wrapped.
func TestTraceV2CountAtInt32Max(t *testing.T) {
	const n = math.MaxInt32
	st := &Stream{Scenario: "max", LogicalSectors: 1 << 42, Requests: []trace.Request{
		{Time: 1, Op: trace.OpWrite, Offset: 1<<40 + 3, Count: n},
		{Time: 2, Op: trace.OpRead, Offset: 0, Count: n},
	}}
	blob, err := EncodeStream(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStream(blob)
	if err != nil || !slices.Equal(got.Requests, st.Requests) {
		t.Fatalf("round trip = (%+v, %v), want %+v", got, err, st.Requests)
	}
	const size = 1 << 20
	out := retimeTrace(&Cohort{Trace: st.Requests}, 5*size, size)
	for _, r := range out {
		if r.Count != size || r.Offset != 5*size {
			t.Fatalf("retimed %+v, want the whole %d-sector partition at %d", r, size, 5*size)
		}
	}
}

// TestTraceV2GoldenV1 holds the record layout to two containers of "mixed"
// at scale 0.001. mixed-v1.axt2 has the DEFLATE body earlier releases wrote:
// it must still open, to the stream that was sealed into it.
// mixed-v1-raw.axt2 is what the encoder writes for that stream, and it must
// write it byte for byte.
func TestTraceV2GoldenV1(t *testing.T) {
	want := sampleStream(t)
	for _, name := range []string{"mixed-v1.axt2", "mixed-v1-raw.axt2"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		st, err := DecodeStream(golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(st.Requests, want.Requests) || !slices.Equal(st.Cohorts, want.Cohorts) {
			t.Errorf("%s does not decode to the stream that was sealed into it", name)
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "mixed-v1-raw.axt2"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeStream(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, golden) {
		t.Fatal("the stream does not encode to mixed-v1-raw.axt2")
	}
}

// TestTraceV2TamperSweep: the records are filled in before the container's
// digest is checked, so a damaged container — one byte flipped per 4 KiB of
// either golden one and of one several windows long, or cut at every 4 KiB —
// must come back as a typed refusal and never as a stream.
func TestTraceV2TamperSweep(t *testing.T) {
	var blobs [][]byte
	for _, name := range []string{"mixed-v1.axt2", "mixed-v1-raw.axt2"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, golden)
	}
	wide, err := EncodeStream(benchStream(t, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range append(blobs, wide) {
		refused := func(what string, damaged []byte) {
			t.Helper()
			st, err := DecodeStream(damaged)
			if st != nil || (!errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrTruncated)) {
				t.Errorf("%s of %d: stream %v, err %v; want no stream and ErrCorrupt or ErrTruncated", what, len(blob), st != nil, err)
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

// benchStream is "mixed" at the scale the study-cold ledger workload uses
// (about 300 k requests).
func benchStream(tb testing.TB, scale float64) *Stream {
	tb.Helper()
	sc, err := Builtin("mixed")
	if err != nil {
		tb.Fatal(err)
	}
	st, err := sc.Scale(scale).Generate(1 << 24)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestTraceV2CodecAllocations locks the codec's allocation shape. Nothing is
// allocated per request: encoding allocates the codec's window and the
// container, which the records are written into where they stay; decoding
// reads the body where it lies and allocates one exact-size Requests slice.
func TestTraceV2CodecAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	st := benchStream(t, 0.08)
	blob, err := EncodeStream(st)
	if err != nil {
		t.Fatal(err)
	}
	nr := len(st.Requests)
	body := nr * recordBytes
	if body < 2<<20 {
		t.Fatalf("stream has only %d requests: its body would fit the decode allowance", nr)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	enc := testing.AllocsPerRun(5, func() {
		if _, err := EncodeStream(st); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if enc > 16 {
		t.Errorf("encoding %d requests made %v allocations, want at most 16", nr, enc)
	}
	// AllocsPerRun runs the function once to warm up, then 5 times.
	if perRun, limit := (after.TotalAlloc-before.TotalAlloc)/6, uint64(len(blob)+512<<10); perRun > limit {
		t.Errorf("encoding %d requests (a %d-byte container) allocated %d bytes, want at most %d (the container + 512 KiB)", nr, len(blob), perRun, limit)
	}
	runtime.ReadMemStats(&before)
	dec := testing.AllocsPerRun(5, func() {
		if _, err := DecodeStream(blob); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if limit := float64(nr/256 + 32); dec > limit {
		t.Errorf("decoding %d requests made %v allocations, want at most %v", nr, dec, limit)
	}
	perRun := (after.TotalAlloc - before.TotalAlloc) / 6
	if limit := uint64(nr*int(unsafe.Sizeof(st.Requests[0])) + 1<<20); perRun > limit {
		t.Errorf("decoding %d requests (a %d-byte body) allocated %d bytes, want at most %d (one exact slice + 1 MiB)", nr, body, perRun, limit)
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

func BenchmarkTraceV2Encode(b *testing.B) {
	st := benchStream(b, 0.2)
	b.SetBytes(int64(len(st.Requests)) * recordBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeStream(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceV2Decode(b *testing.B) {
	st := benchStream(b, 0.2)
	blob, err := EncodeStream(st)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(st.Requests)) * recordBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeStream(blob); err != nil {
			b.Fatal(err)
		}
	}
}
