package trace

import (
	"fmt"
	"io"
	"strings"
)

// The MSR Cambridge block traces (SNIA IOTTA) are the other widely used
// public collection; supporting their format lets the simulator replay them
// directly. One request per CSV line:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// with Timestamp in Windows filetime (100 ns ticks since 1601), Type
// "Read"/"Write", Offset and Size in bytes, ResponseTime in 100 ns ticks
// (ignored; the simulator recomputes response times).

// windowsTick is the filetime resolution in milliseconds.
const windowsTick = 1e-4 // 100 ns

// ReadAllMSR slurps an entire MSR-format trace. Timestamps are rebased to
// t=0 and converted to milliseconds; an error names the offending line.
func ReadAllMSR(r io.Reader) ([]Request, error) { return readAll(r, "msr") }

// DetectFormat sniffs whether trace text is SYSTOR (6 fields, R/W in field
// 3) or MSR (7 fields, Read/Write in field 4); it returns "systor", "msr"
// or an error. Only the first non-empty line is examined.
func DetectFormat(firstLine string) (string, error) {
	n := strings.Count(strings.TrimSpace(firstLine), ",") + 1
	switch n {
	case 6:
		return "systor", nil
	case 7:
		return "msr", nil
	}
	return "", fmt.Errorf("trace: unrecognised format (%d fields)", n)
}
