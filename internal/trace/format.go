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

// readAll parses all of r. A bytes.Reader's own bytes are parsed in place,
// handed over by its WriteTo in one Write; any other reader is read into one
// buffer, allocated once when r can say how much it holds (a strings
// Reader, a file).
func readAll(r io.Reader, format string) ([]Request, error) {
	if br, ok := r.(*bytes.Reader); ok && br.Len() > 0 {
		p := textParser{format: format}
		br.WriteTo(&p) // p.Write never fails; the outcome is p's
		return p.reqs, p.err
	}
	var buf bytes.Buffer
	switch r := r.(type) {
	case interface{ Len() int }:
		buf.Grow(r.Len() + bytes.MinRead)
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return parseText(buf.Bytes(), format)
}

// textParser is the io.Writer a bytes.Reader's WriteTo writes to: it parses
// the one Write of the reader's remaining bytes and keeps the outcome, not
// the bytes.
type textParser struct {
	format string
	reqs   []Request
	err    error
}

func (p *textParser) Write(b []byte) (int, error) {
	p.reqs, p.err = parseText(b, p.format)
	return len(b), nil
}

// parseText parses a whole trace in the given format, sniffing it from the
// first data line when format is empty.
func parseText(data []byte, format string) ([]Request, error) {
	if format == "" {
		var err error
		if format, err = DetectFormat(string(firstDataLine(data))); err != nil {
			return nil, err
		}
	}
	return parse(data, format == "msr")
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

// parse walks trace text once. A line of the collections' own shape is read
// by scanLine in one forward pass; any other line — blank, a comment, white
// space, other spellings, any error — goes whole to parseRecord, which owns
// trimming, Unicode case mapping and every error text. Nothing is copied and
// the result is allocated once, from the newline count.
func parse(data []byte, msr bool) ([]Request, error) {
	out := make([]Request, 0, bytes.Count(data, newline)+1)
	prefix, scale := "trace: line", 1000.0 // SYSTOR timestamps are seconds
	if msr {
		prefix, scale = "trace: msr line", 1
	}
	var base float64
	for pos, lineNo := 0, 1; pos < len(data); lineNo++ {
		t, req, n := scanLine(data[pos:], msr)
		if n == 0 {
			line := data[pos:]
			if end := bytes.IndexByte(line, '\n'); end >= 0 {
				line = line[:end]
			}
			n = len(line) + 1
			if head := bytes.TrimSpace(line); len(head) == 0 || head[0] == '#' {
				pos += n
				continue
			}
			var err error
			if t, req, err = parseRecord(line, msr); err != nil {
				return nil, fmt.Errorf("%s %d: %w", prefix, lineNo, err)
			}
		}
		pos += n
		if len(out) == 0 {
			base = t
		}
		req.Time = (t - base) * scale
		out = append(out, req)
	}
	return out, nil
}

// scanLine reads the line at the head of b if it has the shape the
// collections write, fields unpadded and the last line's newline optional:
//
//	SYSTOR: decimal,any,R|W|r|w,any,digits,digits (\n | \r\n)
//	MSR:    digits,any,any,Read|Write|R|W|r|w,digits,digits,any \n
//
// where "any" is an ignored column, skipped unread, and an extent that
// parseRecord would reject is off the shape too. It returns the timestamp in
// the dialect's own unit and the line's length with its newline, or n = 0
// for a line off the shape. Each step takes the index its field starts at
// and returns the one after it, or -1 from the first step that fails on.
func scanLine(b []byte, msr bool) (t float64, req Request, n int) {
	var i int
	if msr {
		var ticks uint64
		ticks, i = digits(b, 0)
		t = float64(int64(ticks)) * windowsTick
		i = skipField(b, comma(b, skipField(b, comma(b, i))))
		req.Op, i = msrOp(b, comma(b, i))
	} else {
		t, i = decimal(b)
		i = skipField(b, comma(b, i))
		req.Op, i = letterOp(b, comma(b, i))
		i = skipField(b, comma(b, i))
	}
	off, i := digits(b, comma(b, i))
	size, i := digits(b, comma(b, i))
	switch {
	case i < 0:
	case msr:
		n = lastField(b, comma(b, i))
	case i == len(b):
		n = i
	case b[i] == '\n':
		n = i + 1
	case b[i] == '\r' && (i+1 == len(b) || b[i+1] == '\n'):
		n = i + 2
	}
	if n == 0 {
		return 0, req, 0
	}
	var err error
	if req.Offset, req.Count, err = byteRangeToSectors(int64(off), int64(size)); err != nil {
		return 0, req, 0
	}
	return t, req, n
}

// comma steps over the comma at b[i].
func comma(b []byte, i int) int {
	if i < 0 || i >= len(b) || b[i] != ',' {
		return -1
	}
	return i + 1
}

// decimal reads the timestamp that starts b: digits with an optional
// fraction, at most 19 of them. An integer mantissa below 2^53 and a
// fraction of at most 22 digits are both exact in a float64, so their
// quotient is the correctly rounded value strconv.ParseFloat returns; any
// other timestamp is off the shape.
func decimal(b []byte) (float64, int) {
	var m uint64
	i := 0
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	nd, frac := i, 0
	if i < len(b) && b[i] == '.' {
		dot := i
		for i++; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		frac = i - dot - 1
		nd += frac
	}
	if nd == 0 || nd > 19 || m >= 1<<53 || frac > 22 {
		return 0, -1
	}
	return float64(m) / pow10[frac], i
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// digits reads a run of 1 to 18 digits, a value no int64 overflows on.
func digits(b []byte, i int) (uint64, int) {
	if i < 0 {
		return 0, -1
	}
	start := i
	var v uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
	}
	if i == start || i-start > 18 {
		return 0, -1
	}
	return v, i
}

// skipField steps to the comma that ends a field, which must come before the
// line's end.
func skipField(b []byte, i int) int {
	if i < 0 {
		return -1
	}
	for ; i < len(b); i++ {
		switch b[i] {
		case ',':
			return i
		case '\n':
			return -1
		}
	}
	return -1
}

// lastField returns the length through its newline of a line whose last
// field starts at b[i], or 0 if another comma follows.
func lastField(b []byte, i int) int {
	if i < 0 {
		return 0
	}
	for ; i < len(b) && b[i] != '\n'; i++ {
		if b[i] == ',' {
			return 0
		}
	}
	return i + 1
}

// letterOp reads a one-letter direction.
func letterOp(b []byte, i int) (Op, int) {
	if i >= 0 && i < len(b) {
		switch b[i] {
		case 'R', 'r':
			return OpRead, i + 1
		case 'W', 'w':
			return OpWrite, i + 1
		}
	}
	return 0, -1
}

// msrOp reads an MSR direction: Read, Write or one letter.
func msrOp(b []byte, i int) (Op, int) {
	switch {
	case i < 0:
		return 0, -1
	case len(b)-i >= 4 && string(b[i:i+4]) == "Read":
		return OpRead, i + 4
	case len(b)-i >= 5 && string(b[i:i+5]) == "Write":
		return OpWrite, i + 5
	}
	return letterOp(b, i)
}

// parseRecord reads one data line off scanLine's shape. It returns the
// timestamp in the dialect's own unit (seconds, or milliseconds for MSR).
// The line splits at every comma, and each field is trimmed of Unicode white
// space before it is read.
func parseRecord(line []byte, msr bool) (t float64, req Request, err error) {
	want, opCol := 6, 2
	if msr {
		want, opCol = 7, 3
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
	if n+1 != want {
		return 0, req, fmt.Errorf("want %d comma-separated fields, got %d", want, n+1)
	}
	comma[n] = len(line)
	// field is column i > 0, trimmed.
	field := func(i int) []byte { return bytes.TrimSpace(line[comma[i-1]+1 : comma[i]]) }
	// quoted is field i as the messages show it: cut from the trimmed line,
	// itself untrimmed.
	quoted := func(i int) string { return strings.Split(strings.TrimSpace(string(line)), ",")[i] }

	if ts := bytes.TrimSpace(line[:comma[0]]); msr {
		var ticks int64
		ticks, err = strconv.ParseInt(string(ts), 10, 64)
		t = float64(ticks) * windowsTick
	} else {
		t, err = strconv.ParseFloat(string(ts), 64)
	}
	op, okOp := parseOp(field(opCol), msr)
	offB, errOff := strconv.ParseInt(string(field(4)), 10, 64)
	sizeB, errSize := strconv.ParseInt(string(field(5)), 10, 64)
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

// parseOp reads a trimmed direction field: R or W in any case for SYSTOR, and
// for MSR Read or Write too.
func parseOp(f []byte, msr bool) (Op, bool) {
	switch s := strings.ToLower(string(f)); {
	case s == "r" || msr && s == "read":
		return OpRead, true
	case s == "w" || msr && s == "write":
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
