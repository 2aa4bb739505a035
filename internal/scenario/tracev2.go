package scenario

import (
	"encoding/binary"
	"fmt"
	"math"

	"across/internal/snapshot"
	"across/internal/trace"
)

// Trace-v2 is the versioned binary workload container: a generated Stream
// sealed into the same self-describing container the snapshot layer uses
// (magic + version + flags + length + SHA-256 + body), so scenario
// workloads are storable, diffable, content-addressable artifacts instead of
// ad-hoc CSV. Unlike the v1 text traces, the header carries the workload's
// own metadata — generating scenario, device size, per-cohort request counts
// and LBA partitions — and the schema is versioned, so an incompatible
// reader fails loudly (snapshot.ErrVersion) rather than misreading requests.
//
// Encoding is deterministic: the same Stream always seals to the same bytes,
// which is what lets CI byte-compare trace-v2 artifacts across runs and
// engines. The body is stored raw: DEFLATE saved 42 % of it at twelve times
// the round trip's cost, and the records are filled straight into the
// container. Containers with a DEFLATE body, which earlier releases wrote,
// still open.

// TraceV2Magic identifies a trace-v2 container ("across trace v2").
const TraceV2Magic = "AXT2"

// TraceV2Version is the trace-v2 schema version written by EncodeStream and
// required by DecodeStream.
const TraceV2Version = 1

// recordBytes is the size of one request in the body. The requests are one
// column of fixed-width little-endian records — f64 time, u8 op, i64 offset,
// i32 count — written into and read out of the codec's window.
const recordBytes = 8 + 1 + 8 + 4

// EncodeStream seals a generated stream into a trace-v2 container.
func EncodeStream(s *Stream) ([]byte, error) {
	e := snapshot.NewRawContainer(TraceV2Magic, TraceV2Version)
	e.Tag("meta")
	e.Str(s.Scenario)
	e.I64(s.LogicalSectors)
	e.I64(int64(len(s.Cohorts)))
	for _, c := range s.Cohorts {
		e.Str(c.Name)
		e.I64(c.Requests)
		e.I64(c.StartSector)
		e.I64(c.Sectors)
	}
	e.Tag("reqs")
	e.Column(len(s.Requests), recordBytes, func(dst []byte, first int) {
		for i, r := range s.Requests[first : first+len(dst)/recordBytes] {
			rec := dst[i*recordBytes:][:recordBytes]
			binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(r.Time))
			rec[8] = uint8(r.Op)
			binary.LittleEndian.PutUint64(rec[9:], uint64(r.Offset))
			binary.LittleEndian.PutUint32(rec[17:], uint32(r.Count))
		}
	})
	return e.Finish()
}

// DecodeStream opens a trace-v2 container and reconstructs the stream.
// Hostile inputs (fuzzed by FuzzTraceV2Decode) yield a typed snapshot error
// and no stream, never a panic, and allocation is bounded by what the bytes
// actually present could inflate to.
func DecodeStream(blob []byte) (*Stream, error) {
	d, err := snapshot.Open(TraceV2Magic, TraceV2Version, blob)
	if err != nil {
		return nil, err
	}
	s := &Stream{}
	d.Tag("meta")
	s.Scenario = d.Str()
	s.LogicalSectors = d.I64()
	nc := d.I64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if nc < 0 || nc > 1<<16 {
		return nil, fmt.Errorf("%w: implausible cohort count %d", snapshot.ErrCorrupt, nc)
	}
	for i := int64(0); i < nc && d.Err() == nil; i++ {
		s.Cohorts = append(s.Cohorts, CohortInfo{
			Name:        d.Str(),
			Requests:    d.I64(),
			StartSector: d.I64(),
			Sectors:     d.I64(),
		})
	}
	d.Tag("reqs")
	// One exact slice: the count is refused, before anything is allocated,
	// unless the payload could inflate to that many records.
	n := d.Count(recordBytes)
	if d.Err() == nil {
		s.Requests = make([]trace.Request, n)
	}
	d.Blocks(n, recordBytes, func(src []byte, first int) error {
		for i := range len(src) / recordBytes {
			rec := src[i*recordBytes:][:recordBytes]
			op, count := rec[8], int32(binary.LittleEndian.Uint32(rec[17:]))
			// No writer produces these, and a forged container's checksum is
			// the forger's: refuse them here, not request by request mid-replay.
			if op > uint8(trace.OpWrite) || count <= 0 {
				return fmt.Errorf("%w: request %d has op %d, count %d", snapshot.ErrCorrupt, first+i, op, count)
			}
			s.Requests[first+i] = trace.Request{
				Time:   math.Float64frombits(binary.LittleEndian.Uint64(rec[0:])),
				Op:     trace.Op(op),
				Offset: int64(binary.LittleEndian.Uint64(rec[9:])),
				Count:  count,
			}
		}
		return nil
	})
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
