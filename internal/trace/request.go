// Package trace defines the block-level request model used throughout the
// simulator, the SYSTOR '17 CSV trace format (the format of the enterprise
// VDI "LUN" traces the paper replays), and trace statistics such as the
// across-page access ratio of Figs 2 and 13.
package trace

import "fmt"

// Op is the request direction.
type Op uint8

const (
	// OpRead is a host read.
	OpRead Op = iota
	// OpWrite is a host write.
	OpWrite
)

// String implements fmt.Stringer ("R"/"W", as in the trace files).
func (o Op) String() string {
	if o == OpWrite {
		return "W"
	}
	return "R"
}

// Class is the alignment classification of a request relative to a given
// flash page size (Fig 1 of the paper).
type Class uint8

const (
	// ClassAligned starts and ends on page boundaries.
	ClassAligned Class = iota
	// ClassAcross is the paper's special case: size not larger than one
	// page, but spanning exactly two logical pages.
	ClassAcross
	// ClassUnaligned is any other request that touches a partial page.
	ClassUnaligned
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassAligned:
		return "aligned"
	case ClassAcross:
		return "across-page"
	case ClassUnaligned:
		return "unaligned"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Request is one block-level I/O. Offset and Count are in 512 B sectors;
// Time is in milliseconds from the start of the trace.
//
// The record is 24 bytes: Time and Offset, then Count as an int32 with Op in
// what would otherwise be the struct's tail padding. Traces are held whole,
// millions of requests at a time, so the width is the simulator's memory.
// Every parser caps a request at maxRequestBytes (maxCount sectors, far
// below math.MaxInt32), so a Count that reaches a Request always fits; code
// that multiplies or sums counts widens to int64 first.
type Request struct {
	Time   float64
	Offset int64
	Count  int32
	Op     Op
}

// maxCount is the largest sector count a parsed request can carry: a
// maxRequestBytes extent that straddles a sector boundary at both ends. The
// conversion is the build-time proof that Count holds every count the
// parsers admit: a maxRequestBytes/512 + 1 above math.MaxInt32 overflows the
// constant and fails the build, so raising the cap cannot truncate a count.
const maxCount = int32(maxRequestBytes/512 + 1)

// End returns the exclusive sector end of the request.
func (r Request) End() int64 { return r.Offset + int64(r.Count) }

// FirstLPN returns the first logical page touched, for a page of spp sectors.
func (r Request) FirstLPN(spp int) int64 { return r.Offset / int64(spp) }

// LastLPN returns the last logical page touched.
func (r Request) LastLPN(spp int) int64 { return (r.End() - 1) / int64(spp) }

// Pages returns how many logical pages the request touches.
func (r Request) Pages(spp int) int { return int(r.LastLPN(spp)-r.FirstLPN(spp)) + 1 }

// Classify returns the request's alignment class for a page of spp sectors,
// per the definition in §1: an across-page request has size <= one page yet
// spans two logical pages.
func (r Request) Classify(spp int) Class {
	if r.Count <= 0 {
		return ClassUnaligned
	}
	pages := r.Pages(spp)
	if int(r.Count) <= spp && pages == 2 {
		return ClassAcross
	}
	if r.Offset%int64(spp) == 0 && int(r.Count)%spp == 0 {
		return ClassAligned
	}
	return ClassUnaligned
}

// Validate checks a request for structural sanity against a device of
// logicalSectors addressable sectors (0 disables the bound check).
func (r Request) Validate(logicalSectors int64) error {
	if r.Count <= 0 {
		return fmt.Errorf("trace: request with non-positive count %d", r.Count)
	}
	if r.Offset < 0 {
		return fmt.Errorf("trace: request with negative offset %d", r.Offset)
	}
	if r.Time < 0 {
		return fmt.Errorf("trace: request with negative time %g", r.Time)
	}
	if logicalSectors > 0 && r.End() > logicalSectors {
		return fmt.Errorf("trace: request [%d,%d) beyond device end %d",
			r.Offset, r.End(), logicalSectors)
	}
	return nil
}

// String renders the request in the canonical write(addr, size) notation of
// the paper's figures.
func (r Request) String() string {
	verb := "read"
	if r.Op == OpWrite {
		verb = "write"
	}
	return fmt.Sprintf("%s(%dK, %gK)@%.3fms", verb, r.Offset/2, float64(r.Count)/2, r.Time)
}
