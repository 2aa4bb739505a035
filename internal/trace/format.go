package trace

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// maxRequestBytes caps one request's byte span. Real block traces top out in
// the low megabytes; anything beyond this is trace corruption (and, before
// the cap existed, a route to int64 overflow in the sector arithmetic).
const maxRequestBytes int64 = 1 << 30

// byteRangeToSectors converts a byte extent to whole sectors, rounding
// outwards like a block layer. It rejects the degenerate and overflowing
// extents fuzzed trace files produce: non-positive sizes, negative offsets,
// implausibly large requests, and offset+size sums past int64.
func byteRangeToSectors(offB, sizeB int64) (startSec int64, count int32, err error) {
	if sizeB <= 0 {
		return 0, 0, fmt.Errorf("non-positive size %d", sizeB)
	}
	if offB < 0 {
		return 0, 0, fmt.Errorf("negative offset %d", offB)
	}
	if sizeB > maxRequestBytes {
		return 0, 0, fmt.Errorf("implausible size %d bytes (cap %d)", sizeB, maxRequestBytes)
	}
	if offB > math.MaxInt64-sizeB-511 {
		return 0, 0, fmt.Errorf("offset %d + size %d overflows the byte address space", offB, sizeB)
	}
	startSec = offB / 512
	endSec := (offB + sizeB + 511) / 512
	return startSec, int32(endSec - startSec), nil // at most maxCount
}

// The SYSTOR '17 LUN collection stores one request per CSV line:
//
//	timestamp,response_time,io_type,lun,offset,size
//
// with the timestamp in seconds (epoch or relative), response time in
// seconds (often empty), io_type "R"/"W", offset and size in bytes.
// ReadAll accepts that format (ignoring the recorded response time, which the
// simulator recomputes) and Writer emits it, so real LUN traces drop in
// unchanged and generated traces can be inspected with standard tools.

// Both dialects go through one parser. They differ in the field count, in
// the column and spelling of the direction and in the unit of the timestamp;
// offset and size are columns 4 and 5 of either.
//
// Grammar: a line ends at '\n' and may be any length. It is trimmed of
// Unicode white space (which takes a CR with it) and skipped if that leaves
// nothing or a leading '#'; the rest splits at every comma, and each field
// is trimmed the same way before it is read.

// ReadAll slurps an entire SYSTOR-format trace. Timestamps are rebased so
// the first request arrives at t=0 and converted from seconds to
// milliseconds; an error names the offending line.
func ReadAll(r io.Reader) ([]Request, error) { return readAll(r, "systor") }

// ReadAllAuto slurps an entire trace, sniffing the format (SYSTOR '17 or
// MSR Cambridge) from the first non-empty, non-comment line.
func ReadAllAuto(r io.Reader) ([]Request, error) { return readAll(r, "") }

// readAll reads all of r into one buffer, allocated once when r can say how
// much it holds (a bytes or strings Reader, a file), and parses it.
func readAll(r io.Reader, format string) ([]Request, error) {
	var buf bytes.Buffer
	switch r := r.(type) {
	case interface{ Len() int }:
		buf.Grow(r.Len() + bytes.MinRead)
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	if err == nil && format == "" {
		format, err = DetectFormat(string(firstDataLine(buf.Bytes())))
	}
	if err != nil {
		return nil, err
	}
	return parse(buf.Bytes(), format == "msr")
}

// firstDataLine returns the first line that is neither blank nor a comment,
// trimmed; nil if there is none.
func firstDataLine(data []byte) []byte {
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, newline)
		if line = bytes.TrimSpace(line); len(line) > 0 && line[0] != '#' {
			return line
		}
	}
	return nil
}

var newline = []byte{'\n'}

// parse walks trace text once: per line, one pass for its end and its
// commas, then four fields read in place. Nothing is copied and the result
// is allocated once, from the newline count.
func parse(data []byte, msr bool) ([]Request, error) {
	out := make([]Request, 0, bytes.Count(data, newline)+1)
	prefix, scale := "trace: line", 1000.0 // SYSTOR timestamps are seconds
	if msr {
		prefix, scale = "trace: msr line", 1
	}
	var base float64
	for pos, lineNo := 0, 1; pos < len(data); lineNo++ {
		line := data[pos:]
		if end := bytes.IndexByte(line, '\n'); end >= 0 {
			line = line[:end]
		}
		pos += len(line) + 1
		if head := trimField(line); len(head) == 0 || head[0] == '#' {
			continue
		}
		// comma[i] is where field i ends. A line with more commas than any
		// dialect has wraps around and is refused on its count.
		var comma [8]int
		n := 0
		for i, c := range line {
			if c == ',' {
				comma[n&7] = i
				n++
			}
		}
		t, req, err := parseRecord(line, &comma, n, msr)
		if err != nil {
			return nil, fmt.Errorf("%s %d: %w", prefix, lineNo, err)
		}
		if len(out) == 0 {
			base = t
		}
		req.Time = (t - base) * scale
		out = append(out, req)
	}
	return out, nil
}

// parseRecord reads one data line whose n commas parse found. It returns the
// timestamp in the dialect's own unit (seconds, or milliseconds for MSR).
func parseRecord(line []byte, comma *[8]int, n int, msr bool) (t float64, req Request, err error) {
	want, opCol := 6, 2
	if msr {
		want, opCol = 7, 3
	}
	if n+1 != want {
		return 0, req, fmt.Errorf("want %d comma-separated fields, got %d", want, n+1)
	}
	comma[n] = len(line)
	// field is column i > 0, trimmed.
	field := func(i int) []byte { return trimField(line[comma[i-1]+1 : comma[i]]) }
	// quoted is field i as the messages show it: cut from the trimmed line,
	// itself untrimmed.
	quoted := func(i int) string { return strings.Split(strings.TrimSpace(string(line)), ",")[i] }

	if ts := trimField(line[:comma[0]]); msr {
		var ticks int64
		ticks, err = atoi(ts)
		t = float64(ticks) * windowsTick
	} else {
		t, err = strconv.ParseFloat(string(ts), 64)
	}
	op, okOp := parseOp(field(opCol), msr)
	offB, errOff := atoi(field(4))
	sizeB, errSize := atoi(field(5))
	switch {
	case err != nil:
		err = fmt.Errorf("bad timestamp %q: %v", quoted(0), err)
	case math.IsNaN(t) || math.IsInf(t, 0):
		err = fmt.Errorf("non-finite timestamp %q", quoted(0))
	case !okOp && msr:
		err = fmt.Errorf("bad type %q (want Read or Write)", quoted(opCol))
	case !okOp:
		err = fmt.Errorf("bad io_type %q (want R or W)", quoted(opCol))
	case errOff != nil:
		err = fmt.Errorf("bad offset %q: %v", quoted(4), errOff)
	case errSize != nil:
		err = fmt.Errorf("bad size %q: %v", quoted(5), errSize)
	default:
		req = Request{Op: op}
		req.Offset, req.Count, err = byteRangeToSectors(offB, sizeB)
	}
	return t, req, err
}

// trimField is bytes.TrimSpace, which has nothing to remove from a field
// whose first and last bytes are printable ASCII: every white-space rune
// starts and ends with a byte outside that range.
func trimField(b []byte) []byte {
	if n := len(b); n > 0 && b[0] > ' ' && b[0] < 0x7f && b[n-1] > ' ' && b[n-1] < 0x7f {
		return b
	}
	return bytes.TrimSpace(b)
}

// atoi is strconv.ParseInt(b, 10, 64) for a trimmed field. A run of up to 18
// digits — every real offset, size and tick count — cannot overflow and
// takes the loop; a sign, a longer run or junk gets strconv's verdict and
// its error text.
func atoi(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

// parseOp reads a trimmed direction field: R or W in any case for SYSTOR, and
// for MSR Read or Write too. Only the collections' own spellings skip the
// Unicode case mapping.
func parseOp(f []byte, msr bool) (Op, bool) {
	s := string(f)
	if s != "R" && s != "W" && s != "Read" && s != "Write" {
		s = strings.ToLower(s)
	}
	switch {
	case s == "R" || s == "r" || msr && (s == "Read" || s == "read"):
		return OpRead, true
	case s == "W" || s == "w" || msr && (s == "Write" || s == "write"):
		return OpWrite, true
	}
	return 0, false
}

// writeChunk is the size of every write a Writer hands its destination but
// the last: the size of the bufio.Writer it replaces, so a destination that
// grows per write, such as a bytes.Buffer, grows as it did.
const writeChunk = 4096

// Writer emits requests in the SYSTOR CSV format. It builds each line in
// place at the end of its output buffer and writes the buffer out a chunk
// at a time, so a byte is copied once, or twice when its line straddles a
// chunk's end. The first error from the destination sticks: every later
// Write and Flush returns it.
type Writer struct {
	dst io.Writer
	lun int
	buf []byte // lines not yet written out
	err error
}

// NewWriter creates a Writer; lun fills the trace's LUN column.
func NewWriter(w io.Writer, lun int) *Writer {
	// Past the chunk, room for a line of any finite timestamp.
	return &Writer{dst: w, lun: lun, buf: make([]byte, 0, writeChunk+512)}
}

// Write emits one request, formatted as "%.6f,%.6f,%s,%d,%d,%d\n" of the
// timestamp in seconds, a zero response time, the op, the LUN and the byte
// offset and size.
func (w *Writer) Write(req Request) error {
	if w.err != nil {
		return w.err
	}
	b := appendMicros(w.buf, req.Time/1000)
	b = append(b, ",0.000000,"...)
	b = append(b, req.Op.String()...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(w.lun), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, req.Offset*512, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(req.Count)*512, 10)
	w.buf = append(b, '\n')
	for len(w.buf) >= writeChunk && w.err == nil {
		if w.writeOut(w.buf[:writeChunk]) == nil {
			w.buf = w.buf[:copy(w.buf, w.buf[writeChunk:])]
		}
	}
	return w.err
}

// Flush writes out buffered lines; call it once after the last Write.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.buf) > 0 && w.writeOut(w.buf) == nil {
		w.buf = w.buf[:0]
	}
	return w.err
}

// writeOut hands p to the destination, keeping the first error.
func (w *Writer) writeOut(p []byte) error {
	n, err := w.dst.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	w.err = err
	return err
}

// appendMicros appends x as strconv.AppendFloat(dst, x, 'f', 6, 64) does,
// byte for byte. strconv's shortcut covers only shortest and 'e'/'g'
// output; a fixed 'f' precision always takes its multiprecision decimal
// path. Here a non-negative x below 2^53/10^6 is rounded to whole
// microseconds exactly instead: x is mant·2^-shift, so x·10^6 is the
// 128-bit product mant·10^6 shifted right, rounded half to even on the
// bits shifted out, and its integer fits 53 bits. Everything else — a set
// sign bit (−0 prints as "-0.000000"), NaN, infinities and large values —
// is left to strconv.
func appendMicros(dst []byte, x float64) []byte {
	const limit = (1 << 53) / 1e6
	u := math.Float64bits(x)
	if u>>63 != 0 || !(x < limit) {
		return strconv.AppendFloat(dst, x, 'f', 6, 64)
	}
	mant, exp := u&(1<<52-1), uint(u>>52)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	// x < 2^34 puts shift at 19 or more, so n below fits 55 bits. The
	// product is below 2^73: from a shift of 74 on, all of it is under
	// half a microsecond.
	var n uint64
	if shift := 1075 - exp; shift <= 73 {
		hi, lo := bits.Mul64(mant, 1e6)
		k := shift - 1  // the bit worth half a microsecond
		var sticky bool // any bit below k
		if k < 64 {
			n, sticky = hi<<(64-k)|lo>>k, lo<<(64-k) != 0
		} else {
			n, sticky = hi>>(k-64), lo != 0 || hi<<(128-k) != 0
		}
		half := n&1 != 0
		n >>= 1
		if half && (sticky || n&1 != 0) {
			n++
		}
	}
	// Digits from the right: six of the fraction in 32 bits, then the
	// integer part, at least one digit.
	var buf [24]byte
	i := len(buf)
	whole, frac := n/1e6, uint32(n%1e6)
	for j := 0; j < 6; j++ {
		i--
		buf[i] = byte('0' + frac%10)
		frac /= 10
	}
	i--
	buf[i] = '.'
	for {
		i--
		buf[i] = byte('0' + whole%10)
		if whole /= 10; whole == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}
