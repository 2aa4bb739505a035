package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"os"
	"path/filepath"
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

// parseEdgeSystor and parseEdgeMSR are hand-made traces of the shapes a
// reader meets besides the common one: CRLF and bare-LF endings, blank and
// comment lines (one indented), fields padded with spaces and tabs, empty
// ignored columns, lower-case and long direction spellings, an unterminated
// last line, and timestamps of 15, 16 and 17 significant digits, with
// leading zeros, a 23-digit fraction, an exponent and 2^53±1.
const (
	parseEdgeSystor = "# timestamp,response,io_type,lun,offset,size\r\n" +
		"\r\n" +
		"1455276421.123456,0.000912,R,3,1052672,4096\r\n" +
		"  1455276421.12346 , 0 , r ,3, 4096 ,\t512\r\n" +
		"1455276421.1234567,0,W,3,0,512\n" +
		"   # indented comment\n" +
		"1455276421.123457,,w,3,8192,512\n" +
		"100000000000000.5,0,W,0,512,1000\n" +
		"0.00000000000000000000001,0,R,0,100,1000\n" +
		"0001.50,0,W,0,0,4096\n" +
		"1e3,0,W,0,0,512\n" +
		"9007199254740991,0,R,0,0,512\n" +
		"9007199254740993,0,R,0,0,512\n" +
		"1455276422.000001,0.1,W,3,1048576,65536"
	parseEdgeMSR = "# Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\r\n" +
		"128166372003061629,hm,0,Write,0,4096,1000\r\n" +
		" 128166372003061630 , hm , 0 , write , 512 , 512 , 0 \n" +
		"128166372003061631,hm,0,Read,0,512,\n" +
		"\n" +
		"128166372003061632,hm,0,r,4096,1024,0\n" +
		"128166372003061633,hm,0,W,0,512,0"
)

// TestParseGolden pins what the readers produce, every field of every
// request bit for bit, for a generated lun1 trace written by the Writer, the
// MSR sample and the hand-made edge traces.
func TestParseGolden(t *testing.T) {
	msrSample, err := os.ReadFile(filepath.Join("testdata", "msr_sample.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var lun1 bytes.Buffer
	w := trace.NewWriter(&lun1, 1)
	for _, r := range generated(t, 0.01) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		read func(io.Reader) ([]trace.Request, error)
		data []byte
		n    int
		want string
	}{
		{"lun1x0.01", trace.ReadAll, lun1.Bytes(), 7498, "9e560d8f4a2e2b5f1f842e1888635c7995cf62efbaf01ad5d4d2798fa5cc2747"},
		{"msr_sample", trace.ReadAllMSR, msrSample, 96, "64a2787ce2f2b281676d837546834077fef5bfb4ba598ce702c65734223c22f2"},
		{"edge-systor", trace.ReadAll, []byte(parseEdgeSystor), 11, "f267facf80d9ec905fb1bac8e59d0e41d04b701177cf4b795862f0d64098f98e"},
		{"edge-msr", trace.ReadAllMSR, []byte(parseEdgeMSR), 5, "37118adba43ad32523b6186bc7abc152c868571cd09e000b4ac374d4abebf236"},
	} {
		reqs, err := c.read(bytes.NewReader(c.data))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		var rec [21]byte
		for _, r := range reqs {
			binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(r.Time))
			rec[8] = byte(r.Op)
			binary.LittleEndian.PutUint64(rec[9:], uint64(r.Offset))
			binary.LittleEndian.PutUint32(rec[17:], uint32(r.Count))
			h.Write(rec[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); len(reqs) != c.n || got != c.want {
			t.Errorf("%s: %d requests with digest %s, want %d with %s", c.name, len(reqs), got, c.n, c.want)
		}
	}
}
