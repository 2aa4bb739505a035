package fleet

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"across/internal/trace"
)

// logicalOf inverts the layout mapping: the logical sector range a
// device-local fragment came from. Mirrored copies invert identically.
func logicalOf(g geometry, s SubRequest) (int64, int64) {
	dev := int64(s.Device)
	if g.layout == LayoutRAID10 {
		dev /= 2 // both mirrors hold the same column
	}
	switch g.layout {
	case LayoutConcat:
		return dev*g.perDevice + s.Req.Offset, int64(s.Req.Count)
	default: // raid0, raid10: chunked striping over dataDevices columns
		row := s.Req.Offset / g.chunkSectors
		within := s.Req.Offset % g.chunkSectors
		chunk := row*int64(g.dataDevices) + dev
		return chunk*g.chunkSectors + within, int64(s.Req.Count)
	}
}

// TestSplitTiling is the property test of the layout arithmetic: for every
// layout and a large seeded sample of random requests, the sub-request
// ranges mapped back to logical space exactly tile the request — no gaps,
// no overlaps, nothing outside the request — every fragment stays inside
// its device, fragments never straddle a chunk, and RAID-10 writes land on
// both mirrors with identical device-local ranges.
func TestSplitTiling(t *testing.T) {
	const perDevice = 1 << 16 // sectors
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		layout  Layout
		devices int
		chunk   int64
	}{
		{LayoutConcat, 1, 0},
		{LayoutConcat, 4, 0},
		{LayoutRAID0, 2, 8},
		{LayoutRAID0, 4, 16},
		{LayoutRAID0, 4, 128},
		{LayoutRAID0, 7, 32},
		{LayoutRAID10, 2, 16},
		{LayoutRAID10, 4, 8},
		{LayoutRAID10, 8, 64},
	} {
		chunk := tc.chunk
		if tc.layout == LayoutConcat {
			chunk = perDevice
		}
		g, err := newGeometry(tc.layout, tc.devices, chunk, perDevice)
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.layout, tc.devices, err)
		}
		logical := g.logicalSectors()
		for trial := 0; trial < 2000; trial++ {
			count := 1 + rng.Intn(512)
			off := rng.Int63n(logical - int64(count))
			op := trace.OpRead
			if trial%2 == 0 {
				op = trace.OpWrite
			}
			req := trace.Request{Op: op, Offset: off, Count: int32(count)}
			subs, err := g.split(req, nil)
			if err != nil {
				t.Fatalf("%s/%d: split(%v): %v", tc.layout, tc.devices, req, err)
			}
			checkTiling(t, g, req, subs)
		}
	}
}

type span struct{ lo, hi int64 }

func checkTiling(t *testing.T, g geometry, req trace.Request, subs []SubRequest) {
	t.Helper()
	copies := 1
	if g.layout == LayoutRAID10 && req.Op == trace.OpWrite {
		copies = 2
	}
	covered := make(map[span]int)
	var total int64
	for _, s := range subs {
		if s.Device < 0 || s.Device >= g.devices {
			t.Fatalf("split(%v): fragment on device %d of %d", req, s.Device, g.devices)
		}
		if s.Req.Op != req.Op || s.Req.Time != req.Time {
			t.Fatalf("split(%v): fragment changed op or time: %v", req, s.Req)
		}
		if s.Req.Count <= 0 || s.Req.Offset < 0 || s.Req.End() > g.perDevice {
			t.Fatalf("split(%v): fragment %v outside device of %d sectors", req, s.Req, g.perDevice)
		}
		if s.Req.Offset/g.chunkSectors != (s.Req.End()-1)/g.chunkSectors {
			t.Fatalf("split(%v): fragment %v straddles a %d-sector chunk", req, s.Req, g.chunkSectors)
		}
		lo, n := logicalOf(g, s)
		covered[span{lo, lo + n}]++
		total += n
	}
	if total != int64(req.Count)*int64(copies) {
		t.Fatalf("split(%v): fragments cover %d sectors, want %d×%d", req, total, req.Count, copies)
	}
	spans := make([]span, 0, len(covered))
	for sp, c := range covered {
		if c != copies {
			t.Fatalf("split(%v): logical span [%d,%d) covered %d times, want %d", req, sp.lo, sp.hi, c, copies)
		}
		spans = append(spans, sp)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	at := req.Offset
	for _, sp := range spans {
		if sp.lo != at {
			t.Fatalf("split(%v): gap or overlap at sector %d (next span starts %d)", req, at, sp.lo)
		}
		at = sp.hi
	}
	if at != req.End() {
		t.Fatalf("split(%v): tiling ends at %d, want %d", req, at, req.End())
	}
}

// TestMirrorWritesIdentical pins the RAID-10 invariant the tiling test
// checks structurally: each fragment of a write appears on both devices of
// a pair with the same device-local range.
func TestMirrorWritesIdentical(t *testing.T) {
	g, err := newGeometry(LayoutRAID10, 4, 16, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := g.split(trace.Request{Op: trace.OpWrite, Offset: 7, Count: 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs)%2 != 0 {
		t.Fatalf("odd fragment count %d for a mirrored write", len(subs))
	}
	for i := 0; i < len(subs); i += 2 {
		a, b := subs[i], subs[i+1]
		if a.Device/2 != b.Device/2 || a.Device%2 != 0 || b.Device != a.Device+1 {
			t.Fatalf("fragments %d,%d not a mirror pair: devices %d and %d", i, i+1, a.Device, b.Device)
		}
		if a.Req != b.Req {
			t.Fatalf("mirror copies differ: %v vs %v", a.Req, b.Req)
		}
	}
}

// TestRAID10ReadBalance pins the deterministic read policy: reads alternate
// between the two mirrors by stripe row.
func TestRAID10ReadBalance(t *testing.T) {
	const chunk = 16
	g, err := newGeometry(LayoutRAID10, 2, chunk, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	for row := int64(0); row < 4; row++ {
		subs, err := g.split(trace.Request{Op: trace.OpRead, Offset: row * chunk, Count: chunk}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) != 1 {
			t.Fatalf("row %d: %d fragments, want 1", row, len(subs))
		}
		if want := int(row & 1); subs[0].Device != want {
			t.Fatalf("row %d read routed to device %d, want %d", row, subs[0].Device, want)
		}
	}
}

// TestGeometryValidation covers the rejection paths.
func TestGeometryValidation(t *testing.T) {
	for _, tc := range []struct {
		layout  Layout
		devices int
		chunk   int64
	}{
		{LayoutRAID0, 0, 16},      // no devices
		{LayoutRAID10, 3, 16},     // odd mirror count
		{LayoutRAID0, 4, 0},       // zero chunk
		{LayoutRAID0, 4, 1 << 20}, // chunk beyond device
		{LayoutRAID0, 4, 24},      // capacity not a chunk multiple
		{Layout("raid6"), 4, 16},  // unknown layout
	} {
		if _, err := newGeometry(tc.layout, tc.devices, tc.chunk, 1<<16); err == nil {
			t.Errorf("newGeometry(%s, %d, %d) accepted invalid geometry", tc.layout, tc.devices, tc.chunk)
		}
	}
	if _, err := ParseLayout("raid5"); err == nil {
		t.Error("ParseLayout accepted raid5")
	}
	for _, l := range Layouts() {
		if got, err := ParseLayout(string(l)); err != nil || got != l {
			t.Errorf("ParseLayout(%s) = %v, %v", l, got, err)
		}
	}
}

// TestSplitCountAtInt32Max splits the largest count a Request holds over
// every layout, with chunks and devices small enough that fragments are cut
// from it at every boundary kind: the fragments tile it, and none wraps.
func TestSplitCountAtInt32Max(t *testing.T) {
	const perDevice = 1 << 30 // sectors: a concat request spans three devices
	for _, tc := range []struct {
		layout Layout
		chunk  int64
	}{{LayoutConcat, perDevice}, {LayoutRAID0, 1 << 24}, {LayoutRAID10, 1 << 24}} {
		g, err := newGeometry(tc.layout, 6, tc.chunk, perDevice)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []trace.Op{trace.OpRead, trace.OpWrite} {
			req := trace.Request{Op: op, Offset: 12345, Count: math.MaxInt32}
			subs, err := g.split(req, nil)
			if err != nil {
				t.Fatalf("%s: split(%v): %v", tc.layout, req, err)
			}
			checkTiling(t, g, req, subs)
		}
	}
}

// TestSplitBounds covers request rejection against the volume bound.
func TestSplitBounds(t *testing.T) {
	g, err := newGeometry(LayoutRAID0, 2, 16, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []trace.Request{
		{Op: trace.OpRead, Offset: -1, Count: 8},
		{Op: trace.OpRead, Offset: 0, Count: 0},
		{Op: trace.OpRead, Offset: g.logicalSectors() - 4, Count: 8},
	} {
		if _, err := g.split(req, nil); err == nil {
			t.Errorf("split(%v) accepted an out-of-bounds request", req)
		}
	}
}
