// Package fleet composes N independent single-device simulators
// (sim.Runner) into one logical volume — the host-level view of an SSD
// array. A logical request is split into per-device sub-requests by a
// pluggable layout (concatenation, RAID-0 striping, RAID-10
// mirror-of-stripes), each sub-request is dispatched to its device on the
// shared simulated clock, and the logical request completes only when its
// slowest sub-request lands. The layer therefore models inter-device queue
// imbalance and straggler-driven tail latency, and — the scientific point —
// how striping at chunk sizes near the flash page size re-fragments the
// across-page requests that Across-FTL exists to re-align (DESIGN §14).
package fleet

import (
	"fmt"

	"across/internal/trace"
)

// Layout selects how the volume's logical address space maps onto devices.
type Layout string

const (
	// LayoutConcat appends device address spaces back to back — the
	// no-striping baseline: a request touches one device unless it crosses
	// a device boundary.
	LayoutConcat Layout = "concat"
	// LayoutRAID0 stripes the volume across all devices in fixed-size
	// chunks (round-robin by chunk index).
	LayoutRAID0 Layout = "raid0"
	// LayoutRAID10 stripes across mirror pairs: devices 2k and 2k+1 hold
	// identical data; writes go to both, reads alternate between them by
	// stripe row (deterministic read balancing).
	LayoutRAID10 Layout = "raid10"
)

// ParseLayout converts a CLI/JSON layout name into a Layout.
func ParseLayout(s string) (Layout, error) {
	switch Layout(s) {
	case LayoutConcat, LayoutRAID0, LayoutRAID10:
		return Layout(s), nil
	}
	return "", fmt.Errorf("fleet: unknown layout %q (want concat, raid0 or raid10)", s)
}

// Layouts returns every supported layout in comparison order.
func Layouts() []Layout { return []Layout{LayoutConcat, LayoutRAID0, LayoutRAID10} }

// SubRequest is one device-local fragment of a logical request. Req.Offset
// and Req.Count are in the device's own sector address space; Req.Time is
// the logical request's arrival time.
type SubRequest struct {
	Device int
	Req    trace.Request
}

// geometry is the resolved address arithmetic of a volume: data devices
// (mirror pairs count once), chunk size, and per-device capacity.
type geometry struct {
	layout       Layout
	devices      int   // physical devices
	dataDevices  int   // stripe width (devices, or pairs for raid10)
	chunkSectors int64 // stripe chunk (concat: the whole device)
	perDevice    int64 // usable sectors per device
}

func newGeometry(layout Layout, devices int, chunkSectors, perDevice int64) (geometry, error) {
	g := geometry{layout: layout, devices: devices, chunkSectors: chunkSectors, perDevice: perDevice}
	if devices < 1 {
		return g, fmt.Errorf("fleet: need at least 1 device, got %d", devices)
	}
	switch layout {
	case LayoutConcat:
		g.dataDevices = devices
		g.chunkSectors = perDevice
	case LayoutRAID0:
		g.dataDevices = devices
	case LayoutRAID10:
		if devices%2 != 0 || devices < 2 {
			return g, fmt.Errorf("fleet: raid10 needs an even device count >= 2, got %d", devices)
		}
		g.dataDevices = devices / 2
	default:
		return g, fmt.Errorf("fleet: unknown layout %q", layout)
	}
	if g.chunkSectors <= 0 {
		return g, fmt.Errorf("fleet: chunk of %d sectors must be positive", g.chunkSectors)
	}
	if g.chunkSectors > perDevice {
		return g, fmt.Errorf("fleet: chunk of %d sectors exceeds device capacity %d", g.chunkSectors, perDevice)
	}
	if perDevice%g.chunkSectors != 0 && layout != LayoutConcat {
		return g, fmt.Errorf("fleet: device capacity %d sectors is not a multiple of the %d-sector chunk", perDevice, g.chunkSectors)
	}
	return g, nil
}

// logicalSectors is the volume's usable capacity in sectors.
func (g geometry) logicalSectors() int64 {
	return int64(g.dataDevices) * g.perDevice
}

// dataDevice maps a stripe column to the physical device servicing column c
// for stripe row `row`. For mirrored layouts, reads alternate between the
// two mirrors by row parity (write callers enumerate both mirrors instead).
func (g geometry) readDevice(col, row int64) int {
	if g.layout == LayoutRAID10 {
		return int(col)*2 + int(row&1)
	}
	return int(col)
}

// split appends the device-local fragments of one logical request to out and
// returns it. Fragments are emitted in ascending logical-address order; for
// RAID-10 writes both mirrors of a fragment are emitted adjacently (even
// mirror first). The fragment order is part of the determinism contract:
// every engine dispatches sub-requests in exactly this order.
func (g geometry) split(r trace.Request, out []SubRequest) ([]SubRequest, error) {
	if r.Count <= 0 {
		return out, fmt.Errorf("fleet: request with non-positive count %d", r.Count)
	}
	if r.Offset < 0 || r.End() > g.logicalSectors() {
		return out, fmt.Errorf("fleet: request [%d,%d) outside volume of %d sectors",
			r.Offset, r.End(), g.logicalSectors())
	}
	off, remaining := r.Offset, int64(r.Count)
	for remaining > 0 {
		chunk := off / g.chunkSectors
		within := off % g.chunkSectors
		take := g.chunkSectors - within
		if take > remaining {
			take = remaining
		}
		col := chunk % int64(g.dataDevices)
		row := chunk / int64(g.dataDevices)
		devOff := row*g.chunkSectors + within
		sub := trace.Request{Time: r.Time, Op: r.Op, Offset: devOff, Count: int32(take)} // take <= r.Count
		if g.layout == LayoutRAID10 && r.Op == trace.OpWrite {
			out = append(out,
				SubRequest{Device: int(col) * 2, Req: sub},
				SubRequest{Device: int(col)*2 + 1, Req: sub})
		} else {
			out = append(out, SubRequest{Device: g.readDevice(col, row), Req: sub})
		}
		off += take
		remaining -= take
	}
	return out, nil
}
