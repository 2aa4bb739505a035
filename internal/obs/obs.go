// Package obs is the simulator's observability layer: a pluggable event
// tracer with span-style events for every interesting simulator transition
// (request arrival/completion, flash program/read/erase service spans,
// garbage-collection spans with their victims, Across-FTL plan decisions,
// mapping-cache and host-cache hits/misses), a periodic Sampler that
// snapshots time-series metrics on a simulated-clock interval, and the
// Prometheus text renderer acrossd's /metrics page is written with.
//
// Three sinks ship with the package:
//
//   - the no-op tracer (the default: a nil Tracer on every component), whose
//     emission guards compile to a single predictable branch so the replay
//     hot path stays allocation-free and within its overhead budget;
//   - a JSONL writer (NewJSONLTracer) that records every event as one JSON
//     object per line, for ad-hoc analysis with jq or a notebook;
//   - a Chrome trace_event exporter (NewChromeTracer) whose output opens
//     directly in Perfetto / chrome://tracing with one track per flash chip
//     plus a GC track and async request spans.
//
// All timestamps are simulated milliseconds (the clock package's unit).
// Emission must never mutate simulator state: a traced replay is required to
// produce a bit-identical Result to an untraced one (locked in by
// internal/sim's differential tests).
package obs

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// FlashOpKind discriminates the three NAND commands.
type FlashOpKind uint8

const (
	// FlashRead is a page read (cell sensing on the owning chip).
	FlashRead FlashOpKind = iota
	// FlashProgram is a page program.
	FlashProgram
	// FlashErase is a block erase.
	FlashErase
)

// String implements fmt.Stringer.
func (k FlashOpKind) String() string {
	switch k {
	case FlashRead:
		return "read"
	case FlashProgram:
		return "program"
	case FlashErase:
		return "erase"
	}
	return fmt.Sprintf("FlashOpKind(%d)", uint8(k))
}

// Op classes mirror ftl.OpClass (data / map / gc) without importing ftl;
// ClassName renders the uint8 the Device passes through.
const (
	ClassData uint8 = iota
	ClassMap
	ClassGC
)

// ClassName renders an op-class byte for sinks.
func ClassName(c uint8) string {
	switch c {
	case ClassData:
		return "data"
	case ClassMap:
		return "map"
	case ClassGC:
		return "gc"
	}
	return fmt.Sprintf("class(%d)", c)
}

// AcrossKind labels the Across-FTL write/read-path decisions of §3.3.
type AcrossKind uint8

const (
	// AcrossDirect is a first-time across-page write into a fresh area.
	AcrossDirect AcrossKind = iota
	// AcrossMergeProfitable is an AMerge triggered by an across-page write.
	AcrossMergeProfitable
	// AcrossMergeUnprofitable is an AMerge triggered by any other write.
	AcrossMergeUnprofitable
	// AcrossRollback is an area dissolved back into normal pages.
	AcrossRollback
	// AcrossSupersede is an area dropped because an update fully covered it.
	AcrossSupersede
	// AcrossDirectRead is an across read served from one area page.
	AcrossDirectRead
	// AcrossMergedRead is an across read needing area + normal pages.
	AcrossMergedRead
)

// String implements fmt.Stringer.
func (k AcrossKind) String() string {
	switch k {
	case AcrossDirect:
		return "direct"
	case AcrossMergeProfitable:
		return "amerge-profitable"
	case AcrossMergeUnprofitable:
		return "amerge-unprofitable"
	case AcrossRollback:
		return "arollback"
	case AcrossSupersede:
		return "supersede"
	case AcrossDirectRead:
		return "direct-read"
	case AcrossMergedRead:
		return "merged-read"
	}
	return fmt.Sprintf("AcrossKind(%d)", uint8(k))
}

// CacheKind labels which cache an access event belongs to.
type CacheKind uint8

const (
	// CacheMapping is a cached-mapping-table (CMT) translation access —
	// Across-FTL's AMT cache, MRSM's tree-node cache, DFTL's page cache.
	CacheMapping CacheKind = iota
)

// String implements fmt.Stringer.
func (k CacheKind) String() string {
	switch k {
	case CacheMapping:
		return "cmt"
	}
	return fmt.Sprintf("CacheKind(%d)", uint8(k))
}

// Tracer receives simulator events. Implementations must not block the
// simulation semantics: events are notifications, never control flow. Every
// method takes only scalar arguments so that a call through the interface
// performs no allocation — the contract the no-op overhead tests enforce.
//
// Components hold a nil Tracer when tracing is off and guard each emission
// with a nil check, so the disabled cost is one branch.
type Tracer interface {
	// RequestStart opens the span of host request id (sequence number within
	// the replay): direction, alignment class (trace.Class numbering),
	// sector extent, the page fan-out of its split, and the arrival time.
	RequestStart(id int64, write bool, class uint8, offsetSectors, sectors int64, pages int, at float64)
	// RequestEnd closes a request span at its completion time.
	RequestEnd(id int64, write bool, done float64)
	// FlashOp records one NAND command's service span on its chip:
	// [start, done) is the chip-occupancy interval (excluding bus transfer).
	FlashOp(op FlashOpKind, class uint8, chip int, ppn int64, start, done float64)
	// GCVictim records one victim selection (block id and its live pages).
	GCVictim(plane int, victim int64, validPages int, at float64)
	// GCSpan records one garbage-collection invocation: victims processed,
	// valid pages migrated, and the [start, end) interval the collection
	// occupies on the plane's chip.
	GCSpan(plane int, victims, migrated int, start, end float64)
	// AcrossEvent records an Across-FTL plan decision over the request's
	// sector window.
	AcrossEvent(kind AcrossKind, startSector, sectors int64, at float64)
	// CacheAccess records a mapping-cache or host-data-cache access.
	CacheAccess(kind CacheKind, hit bool, at float64)
	// Flush finalises the sink (writes trailers, flushes buffers). The
	// tracer must not be used afterwards.
	Flush() error
}

// OpenTrace opens path and builds the tracer its extension selects:
// ".jsonl" gets the line-oriented event writer, anything else the Chrome
// trace_event exporter (which needs the chip count for its track metadata).
// Closing the returned io.Closer flushes the tracer (writing any format
// trailer) and closes the file; the tracer must not be used afterwards.
func OpenTrace(path string, chips int) (Tracer, io.Closer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	var t Tracer
	if strings.HasSuffix(path, ".jsonl") {
		t = NewJSONLTracer(f)
	} else {
		t = NewChromeTracer(f, chips)
	}
	return t, &traceCloser{t: t, f: f}, nil
}

type traceCloser struct {
	t Tracer
	f *os.File
}

func (tc *traceCloser) Close() error {
	ferr := tc.t.Flush()
	cerr := tc.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
