package trace

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// checkParsed asserts the invariants every successfully parsed request must
// satisfy, whatever bytes the fuzzer fed in: a recognised op, non-negative
// sector offset, positive bounded sector count, and a finite timestamp.
func checkParsed(t *testing.T, reqs []Request) {
	t.Helper()
	for i, r := range reqs {
		if r.Op != OpRead && r.Op != OpWrite {
			t.Errorf("request %d: unknown op %d", i, r.Op)
		}
		if r.Offset < 0 {
			t.Errorf("request %d: negative offset %d", i, r.Offset)
		}
		if r.Count <= 0 {
			t.Errorf("request %d: non-positive count %d", i, r.Count)
		}
		if int64(r.Count)*512 > maxRequestBytes+512 {
			t.Errorf("request %d: count %d sectors exceeds the request cap", i, r.Count)
		}
		if math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
			t.Errorf("request %d: non-finite time %v", i, r.Time)
		}
	}
}

// FuzzSystorReader feeds arbitrary text to the SYSTOR '17 parser: it must
// never panic, and everything it accepts must be a well-formed request.
func FuzzSystorReader(f *testing.F) {
	for _, seed := range []string{
		"0.0,0.0,W,0,0,4096\n",
		"1.5,0.0,R,1,8192,512\n0.0,0.0,W,0,0,1024\n",
		"# comment\n\n2.0,0.1,w,3,1048576,65536\n",
		"0.0,0.0,W,0,0,4096\r\n1.0,0.0,R,0,4096,4096\r\n",
		"garbage\n",
		"0.0,0.0,W,0,9223372036854775000,4096\n",
		"NaN,0.0,W,0,0,4096\n",
		"0.0,0.0,W,0,0,-1\n",
		"0.0,0.0,X,0,0,4096\n",
		",,,,,\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		reqs, err := ReadAll(strings.NewReader(data))
		if err != nil {
			return // rejected input: the parser's prerogative
		}
		checkParsed(t, reqs)
	})
}

// FuzzMSRReader does the same for the MSR Cambridge parser.
func FuzzMSRReader(f *testing.F) {
	for _, seed := range []string{
		"128166372003061629,hm,0,Read,0,4096,1000\n",
		"128166372003061629,hm,0,Write,8192,512,1000\n128166372013061629,hm,0,Read,0,1024,1000\n",
		"# comment\n128166372003061629,srv,1,write,1048576,65536,0\n",
		"128166372003061629,hm,0,Read,0,4096,1000\r\n",
		"garbage,with,seven,fields,in,this,line\n",
		"1,h,0,Write,9223372036854775000,4096,0\n",
		"1,h,0,Write,0,-4096,0\n",
		"1,h,0,Flush,0,4096,0\n",
		",,,,,,\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		reqs, err := ReadAllMSR(strings.NewReader(data))
		if err != nil {
			return
		}
		checkParsed(t, reqs)
	})
}

// referenceParse is the parser this package had before the single-pass one:
// a bufio.Scanner over lines, strings.TrimSpace, strings.Split and a strconv
// call per field. It is kept, unoptimised, as the oracle of
// FuzzReaderMatchesReference. Only its 1 MiB line cap is gone.
func referenceParse(data string, msr bool) ([]Request, error) {
	sc := bufio.NewScanner(strings.NewReader(data))
	sc.Buffer(nil, len(data)+1)
	var (
		out     []Request
		base    float64
		started bool
	)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		var (
			t   float64
			req Request
			err error
		)
		if msr {
			t, req, err = referenceMSRRecord(f)
		} else {
			t, req, err = referenceSystorRecord(f)
		}
		if err != nil && msr {
			return nil, fmt.Errorf("trace: msr line %d: %w", lineNo, err)
		} else if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if !started {
			base, started = t, true
		}
		if req.Time = t - base; !msr {
			req.Time = (t - base) * 1000 // s -> ms, rebased
		}
		out = append(out, req)
	}
	return out, sc.Err()
}

func referenceSystorRecord(f []string) (float64, Request, error) {
	if len(f) != 6 {
		return 0, Request{}, fmt.Errorf("want 6 comma-separated fields, got %d", len(f))
	}
	ts, err := strconv.ParseFloat(strings.TrimSpace(f[0]), 64)
	if err != nil {
		return 0, Request{}, fmt.Errorf("bad timestamp %q: %v", f[0], err)
	}
	if math.IsNaN(ts) || math.IsInf(ts, 0) {
		return 0, Request{}, fmt.Errorf("non-finite timestamp %q", f[0])
	}
	var op Op
	switch strings.ToUpper(strings.TrimSpace(f[2])) {
	case "R":
		op = OpRead
	case "W":
		op = OpWrite
	default:
		return 0, Request{}, fmt.Errorf("bad io_type %q (want R or W)", f[2])
	}
	req, err := referenceExtent(op, f[4], f[5])
	return ts, req, err
}

func referenceMSRRecord(f []string) (float64, Request, error) {
	if len(f) != 7 {
		return 0, Request{}, fmt.Errorf("want 7 comma-separated fields, got %d", len(f))
	}
	ticks, err := strconv.ParseInt(strings.TrimSpace(f[0]), 10, 64)
	if err != nil {
		return 0, Request{}, fmt.Errorf("bad timestamp %q: %v", f[0], err)
	}
	var op Op
	switch strings.ToLower(strings.TrimSpace(f[3])) {
	case "read", "r":
		op = OpRead
	case "write", "w":
		op = OpWrite
	default:
		return 0, Request{}, fmt.Errorf("bad type %q (want Read or Write)", f[3])
	}
	req, err := referenceExtent(op, f[4], f[5])
	return float64(ticks) * windowsTick, req, err
}

func referenceExtent(op Op, off, size string) (Request, error) {
	offB, err := strconv.ParseInt(strings.TrimSpace(off), 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("bad offset %q: %v", off, err)
	}
	sizeB, err := strconv.ParseInt(strings.TrimSpace(size), 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("bad size %q: %v", size, err)
	}
	startSec, count, err := byteRangeToSectors(offB, sizeB)
	return Request{Op: op, Offset: startSec, Count: count}, err
}

// referenceAuto is ReadAllAuto as it was: every line split off just to sniff
// the first, then the matching reference parser.
func referenceAuto(data string) ([]Request, error) {
	first := ""
	for _, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && line[0] != '#' {
			first = line
			break
		}
	}
	f := strings.Split(strings.TrimSpace(first), ",")
	if len(f) != 6 && len(f) != 7 {
		return nil, fmt.Errorf("trace: unrecognised format (%d fields)", len(f))
	}
	return referenceParse(data, len(f) == 7)
}

// FuzzReaderMatchesReference is the differential target: for arbitrary text,
// the single-pass reader and the reference agree, through each of the three
// entry points, on accept or reject, on the error text (which carries the
// line number) and on every request, timestamps bit for bit.
func FuzzReaderMatchesReference(f *testing.F) {
	for _, dir := range []string{"FuzzSystorReader", "FuzzMSRReader"} {
		files, _ := filepath.Glob(filepath.Join("testdata", "fuzz", dir, "*"))
		for _, name := range files {
			// Corpus files are `go test fuzz v1` + one string(...) literal.
			raw, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			_, lit, _ := strings.Cut(string(raw), "\n")
			lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "string("), ")")
			seed, err := strconv.Unquote(lit)
			if err != nil {
				f.Fatalf("%s: %v", name, err)
			}
			f.Add(seed)
		}
	}
	for _, seed := range []string{
		"",
		"0.0,0.0,W,0,0,4096\r\n1.0,0.0,R,0,4096,4096\r\n",
		"0.0,0.0,W,0,0,4096\n1.0,0.0,R,0,4096,4096", // last line unterminated
		"\n# c\n0.5,0,W,0,0,512\n\n  # d\n\n1.5,0,R,0,512,512\n",
		" 0.5 ,\t0 , W\t,0, 4096 ,\u00a0512\u00a0\n",
		"\u00a01,h,0, Read ,\u20034096\u2003,512,0\u00a0\n",
		"0,0,r,0,0,512\n1,0,w,0,0,512\n",
		"0,0,READ,0,0,512\n",
		"1,h,0,READ,0,512,0\n2,h,0,write,0,512,0\n3,h,0,WR\u0130TE,0,512,0\n",
		"0,0,W,0,1234567890123456789,512\n",
		"0,0,W,0,12345678901234567890,512\n",
		"0,0,W,0,+512,0x200\n",
		"+Inf,0,W,0,0,512\n",
		"1455276421.123456,0,W,0,0,512\n1455276421.623457,0,R,0,0,512\n",
		"9007199254740991.5,0,W,0,0,512\n9007199254740992.5,0,W,0,0,512\n",
		"123456789012345678,0,W,0,0,512\n1234567890123456789,0,W,0,0,512\n.5,0,W,0,0,512\n1.,0,W,0,0,512\n",
		"0001.50,0,W,0,0,512\n-1.5,0,W,0,0,512\n1e3,0,W,0,0,512\n0x1p4,0,W,0,0,512\n1_0,0,W,0,0,512\n",
		".,0,W,0,0,512\n",
		"1..2,0,W,0,0,512\n",
		"0.000000000000000001,0,W,0,0,512\n",
		"1e308,0,W,0,0,512\n-1e308,0,W,0,0,512\n",
		"0,0,W,0,0\n",
		"0,0,W,0,0,512,7,8\n",
		"0,0,W,0,0,512\n1,h,0,Read,0,512,0\n",
		"1,h,0,Read,0,512,0\n,,,,,,,,,,,,,,,\n",
		"0,0,W,0,,512\n",
		"\xff0,0,W,0,0,512\xff\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		same := func(name string, got []Request, gotErr error, want []Request, wantErr error) {
			t.Helper()
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d requests, reference %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] || math.Float64bits(got[i].Time) != math.Float64bits(want[i].Time) {
					t.Fatalf("%s: request %d is %+v, reference %+v", name, i, got[i], want[i])
				}
			}
		}
		got, err := ReadAll(strings.NewReader(data))
		want, wantErr := referenceParse(data, false)
		same("ReadAll", got, err, want, wantErr)
		got, err = ReadAllMSR(strings.NewReader(data))
		want, wantErr = referenceParse(data, true)
		same("ReadAllMSR", got, err, want, wantErr)
		got, err = ReadAllAuto(strings.NewReader(data))
		want, wantErr = referenceAuto(data)
		same("ReadAllAuto", got, err, want, wantErr)
	})
}

// TestParserRejectsOverflowingExtents pins the regression the fuzzer first
// surfaced: offsets near MaxInt64 used to wrap to a negative sector count
// instead of producing an error.
func TestParserRejectsOverflowingExtents(t *testing.T) {
	cases := []struct{ name, line string }{
		{"systor-offset-overflow", "0.0,0.0,W,0,9223372036854775000,4096"},
		{"systor-huge-size", "0.0,0.0,W,0,0,9223372036854775000"},
		{"systor-nan-timestamp", "NaN,0.0,W,0,0,4096"},
		{"systor-inf-timestamp", "+Inf,0.0,W,0,0,4096"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadAll(strings.NewReader(tc.line + "\n")); err == nil {
				t.Fatalf("accepted %q", tc.line)
			}
		})
	}
	msr := []struct{ name, line string }{
		{"msr-offset-overflow", "1,h,0,Write,9223372036854775000,4096,0"},
		{"msr-huge-size", "1,h,0,Write,0,9223372036854775000,0"},
	}
	for _, tc := range msr {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadAllMSR(strings.NewReader(tc.line + "\n")); err == nil {
				t.Fatalf("accepted %q", tc.line)
			}
		})
	}
}

// TestParserAcceptsCRLF: traces saved on Windows parse identically to their
// LF forms.
func TestParserAcceptsCRLF(t *testing.T) {
	lf, err := ReadAll(strings.NewReader("0.0,0.0,W,0,0,4096\n1.0,0.0,R,0,4096,4096\n"))
	if err != nil {
		t.Fatal(err)
	}
	crlf, err := ReadAll(strings.NewReader("0.0,0.0,W,0,0,4096\r\n1.0,0.0,R,0,4096,4096\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(lf) != len(crlf) {
		t.Fatalf("LF parsed %d requests, CRLF %d", len(lf), len(crlf))
	}
	for i := range lf {
		if lf[i] != crlf[i] {
			t.Errorf("request %d: LF %+v vs CRLF %+v", i, lf[i], crlf[i])
		}
	}
}
