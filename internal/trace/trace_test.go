package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// The 8 KB page of Table 1 holds 16 sectors.
const spp8k = 16

func TestClassifyPaperFigure1Examples(t *testing.T) {
	// Figure 1 of the paper, page size 8 KB. Addresses in KB * 2 sectors.
	cases := []struct {
		name string
		req  Request
		want Class
	}{
		{"write(1024K,24KB) aligned", Request{Op: OpWrite, Offset: 2048, Count: 48}, ClassAligned},
		{"write(1028K,20KB) unaligned", Request{Op: OpWrite, Offset: 2056, Count: 40}, ClassUnaligned},
		{"write(1028K,8KB) across-page", Request{Op: OpWrite, Offset: 2056, Count: 16}, ClassAcross},
		{"write(1028K,6K) across-page (Fig 3)", Request{Op: OpWrite, Offset: 2056, Count: 12}, ClassAcross},
		{"read(1030K,4K) across-page (Fig 7a)", Request{Op: OpRead, Offset: 2060, Count: 8}, ClassAcross},
		{"sub-page single-page write", Request{Op: OpWrite, Offset: 2048, Count: 4}, ClassUnaligned},
		{"full single page", Request{Op: OpWrite, Offset: 2048, Count: 16}, ClassAligned},
		{"page-sized but across", Request{Op: OpWrite, Offset: 2052, Count: 16}, ClassAcross},
		{"three pages", Request{Op: OpWrite, Offset: 2052, Count: 40}, ClassUnaligned},
	}
	for _, tc := range cases {
		if got := tc.req.Classify(spp8k); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestClassifyDegenerate(t *testing.T) {
	if got := (Request{Count: 0}).Classify(spp8k); got != ClassUnaligned {
		t.Errorf("zero-count request classified %v", got)
	}
}

func TestPagesAndLPNs(t *testing.T) {
	r := Request{Offset: 2056, Count: 12} // write(1028K, 6K)
	if r.FirstLPN(spp8k) != 128 || r.LastLPN(spp8k) != 129 {
		t.Fatalf("LPNs = %d..%d, want 128..129 (paper Fig 3)", r.FirstLPN(spp8k), r.LastLPN(spp8k))
	}
	if r.Pages(spp8k) != 2 {
		t.Fatalf("Pages = %d, want 2", r.Pages(spp8k))
	}
	if r.End() != 2068 {
		t.Fatalf("End = %d, want 2068", r.End())
	}
}

func TestValidate(t *testing.T) {
	good := Request{Time: 1, Op: OpWrite, Offset: 10, Count: 5}
	if err := good.Validate(100); err != nil {
		t.Fatalf("good request rejected: %v", err)
	}
	bad := []Request{
		{Count: 0, Offset: 1},
		{Count: -2, Offset: 1},
		{Count: 1, Offset: -1},
		{Count: 1, Offset: 0, Time: -5},
		{Count: 10, Offset: 95},
	}
	for i, r := range bad {
		if err := r.Validate(100); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, r)
		}
	}
	if err := (Request{Count: 10, Offset: 1 << 40}).Validate(0); err != nil {
		t.Errorf("bound check should be disabled with 0: %v", err)
	}
}

func TestStringers(t *testing.T) {
	r := Request{Op: OpWrite, Offset: 2056, Count: 12, Time: 1}
	if got := r.String(); !strings.Contains(got, "write(1028K, 6K)") {
		t.Errorf("String = %q, want paper notation write(1028K, 6K)", got)
	}
	if OpRead.String() != "R" || OpWrite.String() != "W" {
		t.Error("Op.String mismatch")
	}
	for _, c := range []Class{ClassAligned, ClassAcross, ClassUnaligned, Class(9)} {
		if c.String() == "" {
			t.Error("empty Class string")
		}
	}
}

func TestReaderParsesSystorFormat(t *testing.T) {
	in := `# comment line
1455276421.123456,0.000912,R,3,1052672,4096

1455276421.623456,0.000345,W,3,1052672,6144
`
	reqs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
	r0 := reqs[0]
	if r0.Time != 0 {
		t.Errorf("first timestamp should rebase to 0, got %v", r0.Time)
	}
	if r0.Op != OpRead || r0.Offset != 1052672/512 || r0.Count != 8 {
		t.Errorf("r0 = %+v", r0)
	}
	r1 := reqs[1]
	if r1.Time < 499.9 || r1.Time > 500.1 {
		t.Errorf("r1.Time = %v ms, want ~500", r1.Time)
	}
	if r1.Op != OpWrite || r1.Count != 12 {
		t.Errorf("r1 = %+v, want 12-sector write", r1)
	}
}

func TestReaderRoundsPartialSectors(t *testing.T) {
	// offset 100 bytes, size 1000 bytes: sectors [0, 3).
	reqs, err := ReadAll(strings.NewReader("0,0,W,0,100,1000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if reqs[0].Offset != 0 || reqs[0].Count != 3 {
		t.Fatalf("got [%d,+%d), want [0,+3)", reqs[0].Offset, reqs[0].Count)
	}
}

func TestReaderRejectsCorruptLines(t *testing.T) {
	bad := []string{
		"1,2,3\n",                 // too few fields
		"x,0,R,0,0,512\n",         // bad timestamp
		"0,0,Q,0,0,512\n",         // bad op
		"0,0,R,0,abc,512\n",       // bad offset
		"0,0,R,0,0,xyz\n",         // bad size
		"0,0,R,0,0,0\n",           // zero size
		"0,0,R,0,-512,512\n",      // negative offset
		"0,0,R,0,0,512,extra,1\n", // too many fields
	}
	for _, in := range bad {
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("corrupt line accepted: %q", in)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("error for %q does not name the line: %v", in, err)
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var orig []Request
		tm := 0.0
		for i := 0; i < 50; i++ {
			tm += rng.Float64() * 10
			orig = append(orig, Request{
				Time:   tm,
				Op:     Op(rng.Intn(2)),
				Offset: rng.Int63n(1 << 20),
				Count:  rng.Int31n(64) + 1,
			})
		}
		var sb strings.Builder
		w := NewWriter(&sb, 3)
		for _, r := range orig {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ReadAll(strings.NewReader(sb.String()))
		if err != nil || len(got) != len(orig) {
			return false
		}
		for i := range orig {
			if got[i].Op != orig[i].Op || got[i].Offset != orig[i].Offset || got[i].Count != orig[i].Count {
				return false
			}
			// Times survive to microsecond precision, rebased on the first.
			if d := (got[i].Time) - (orig[i].Time - orig[0].Time); d > 0.01 || d < -0.01 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsTable2Metrics(t *testing.T) {
	reqs := []Request{
		{Op: OpWrite, Offset: 2056, Count: 12}, // across write (6 KB)
		{Op: OpWrite, Offset: 2048, Count: 16}, // aligned write (8 KB)
		{Op: OpRead, Offset: 2060, Count: 8},   // across read
		{Op: OpRead, Offset: 0, Count: 4},      // unaligned read
		{Op: OpWrite, Offset: 4096, Count: 32}, // aligned write (16 KB)
	}
	s := Measure(reqs, spp8k)
	if s.Requests != 5 || s.Writes != 3 || s.Reads != 2 {
		t.Fatalf("counts = %d/%d/%d", s.Requests, s.Writes, s.Reads)
	}
	if got := s.WriteRatio(); got != 0.6 {
		t.Errorf("WriteRatio = %v, want 0.6", got)
	}
	if got := s.AvgWriteKB(); got != 10 {
		t.Errorf("AvgWriteKB = %v, want 10 (6+8+16)/3", got)
	}
	if got := s.AcrossRatio(); got != 0.4 {
		t.Errorf("AcrossRatio = %v, want 0.4", got)
	}
	if got := s.AlignedRatio(); got != 0.4 {
		t.Errorf("AlignedRatio = %v, want 0.4", got)
	}
	if s.AcrossWrites != 1 || s.AcrossReads != 1 {
		t.Errorf("across split = %d/%d, want 1/1", s.AcrossWrites, s.AcrossReads)
	}
	if got := s.FootprintBytes(); got != (4096+32)*512 {
		t.Errorf("FootprintBytes = %d", got)
	}
}

func TestStatsEmptyTrace(t *testing.T) {
	s := NewStats(spp8k)
	if s.WriteRatio() != 0 || s.AvgWriteKB() != 0 || s.AcrossRatio() != 0 || s.AlignedRatio() != 0 {
		t.Error("empty-trace ratios should be 0")
	}
}

// Property: across-page ratio never increases when the page size grows
// (the monotonicity behind Fig 13) for requests no larger than the smaller
// page. A request that crosses a 16-sector boundary may or may not cross a
// 32-sector boundary, but never the reverse.
func TestAcrossMonotoneInPageSize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var reqs []Request
		for i := 0; i < 200; i++ {
			reqs = append(reqs, Request{
				Op:     Op(rng.Intn(2)),
				Offset: rng.Int63n(1 << 16),
				Count:  rng.Int31n(8) + 1, // <= 8 sectors <= every page size
			})
		}
		r8 := Measure(reqs, 8).AcrossRatio()
		r16 := Measure(reqs, 16).AcrossRatio()
		r32 := Measure(reqs, 32).AcrossRatio()
		return r16 <= r8 && r32 <= r16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReaderEOFIsClean(t *testing.T) {
	if reqs, err := ReadAll(strings.NewReader("")); err != nil || len(reqs) != 0 {
		t.Fatalf("empty stream = (%v, %v), want no requests and no error", reqs, err)
	}
}

// TestRequestLayout pins the packed record: every trace the simulator holds
// is a slice of these, so a widened field costs every holder a third more.
func TestRequestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 24 {
		t.Fatalf("trace.Request is %d bytes, want 24", got)
	}
}

// TestCountAtInt32Max drives the largest count a Request can hold through the
// request's own arithmetic and the CSV writer: nothing may wrap at 32 bits.
// The parsers admit at most maxCount, far below it.
func TestCountAtInt32Max(t *testing.T) {
	const n = math.MaxInt32
	off := int64(1)<<40 + 3
	r := Request{Time: 1, Op: OpWrite, Offset: off, Count: n}
	if got, want := r.End(), off+n; got != want {
		t.Fatalf("End = %d, want %d", got, want)
	}
	if got, want := r.Pages(spp8k), 1<<27+1; got != want {
		t.Fatalf("Pages = %d, want %d", got, want)
	}
	if got := r.Classify(spp8k); got != ClassUnaligned {
		t.Fatalf("Classify = %v, want unaligned", got)
	}
	aligned := Request{Op: OpWrite, Offset: 1 << 40, Count: n - n%spp8k}
	if got := aligned.Classify(spp8k); got != ClassAligned {
		t.Fatalf("page-multiple count at the limit: Classify = %v, want aligned", got)
	}
	if err := r.Validate(r.End()); err != nil {
		t.Fatalf("Validate at the device end: %v", err)
	}
	if err := r.Validate(r.End() - 1); err == nil {
		t.Fatal("Validate accepted a request one sector past the device end")
	}

	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	if err := w.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("0.001000,0.000000,W,0,%d,%d\n", off*512, int64(n)*512)
	if buf.String() != want {
		t.Fatalf("Writer wrote %q, want %q", buf.String(), want)
	}
	// Read back, the same line is over the parser's cap and refused whole,
	// not truncated into some smaller count.
	if reqs, err := ReadAll(&buf); err == nil || !strings.Contains(err.Error(), "implausible size") {
		t.Fatalf("ReadAll of a %d-sector request = (%v, %v), want the size cap", n, reqs, err)
	}

	// The largest request the parser does admit: a 1 GiB extent straddling
	// sector boundaries at both ends.
	line := fmt.Sprintf("0,0,R,0,%d,%d\n", 511, maxRequestBytes)
	reqs, err := ReadAll(strings.NewReader(line))
	if err != nil || len(reqs) != 1 || reqs[0].Count != maxCount || reqs[0].Offset != 0 {
		t.Fatalf("ReadAll(%q) = (%v, %v), want one request of %d sectors", line, reqs, err, maxCount)
	}
}

// limitWriter accepts n bytes, then fails every write: whole when it can,
// else short by what is left or with err.
type limitWriter struct {
	n     int
	err   error
	calls int
}

func (l *limitWriter) Write(p []byte) (int, error) {
	l.calls++
	if len(p) <= l.n {
		l.n -= len(p)
		return len(p), nil
	}
	n := l.n
	l.n = 0
	return n, l.err
}

// TestWriterErrorSticks: the first failed or short write to the destination
// is returned by the Write or Flush that made it and by every later one,
// and nothing more is written after it.
func TestWriterErrorSticks(t *testing.T) {
	boom := fmt.Errorf("disk full")
	for _, tc := range []struct {
		name string
		err  error // what the destination returns on its short write
		want error
	}{{"failed", boom, boom}, {"short", nil, io.ErrShortWrite}} {
		t.Run(tc.name, func(t *testing.T) {
			dst := &limitWriter{n: 100 << 10, err: tc.err}
			w := NewWriter(dst, 1)
			r := Request{Time: 1, Op: OpWrite, Offset: 8, Count: 8}
			var err error
			for i := 0; i < 1e5 && err == nil; i++ {
				err = w.Write(r)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Write returned %v, want %v", err, tc.want)
			}
			calls := dst.calls
			if err := w.Write(r); !errors.Is(err, tc.want) {
				t.Errorf("Write after the failure returned %v", err)
			}
			if err := w.Flush(); !errors.Is(err, tc.want) {
				t.Errorf("Flush after the failure returned %v", err)
			}
			if dst.calls != calls {
				t.Errorf("%d writes reached the destination after it failed", dst.calls-calls)
			}
		})
	}
	// A failure on the last, partial chunk surfaces at Flush.
	dst := &limitWriter{n: 10, err: boom}
	w := NewWriter(dst, 1)
	if err := w.Write(Request{Time: 1, Op: OpRead, Offset: 8, Count: 8}); err != nil {
		t.Fatalf("Write of one line returned %v before anything was written out", err)
	}
	if err := w.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush returned %v, want %v", err, boom)
	}
}
