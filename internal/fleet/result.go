package fleet

import (
	"across/internal/ftl"
	"across/internal/sim"
	"across/internal/trace"
)

// DeviceReport is one device's share of a fleet replay: how much work the
// layout routed to it and what that work cost. The spread across devices is
// the queue-imbalance view — a straggler shows up as the utilisation max.
type DeviceReport struct {
	Device      int             `json:"device"`
	SubRequests int64           `json:"sub_requests"`
	Sectors     int64           `json:"sectors"`
	BusyMs      float64         `json:"busy_ms"` // summed chip service time
	Counters    ftl.Counters    `json:"counters"`
	Wear        sim.WearSummary `json:"wear"`
}

// ClassCounts counts requests per alignment class, indexed by trace.Class
// (aligned, across-page, unaligned).
type ClassCounts [3]int64

// Total returns the summed count across classes.
func (c ClassCounts) Total() int64 { return c[0] + c[1] + c[2] }

// Ratio returns class i's share of the total (0 when empty).
func (c ClassCounts) Ratio(i trace.Class) float64 {
	if t := c.Total(); t > 0 {
		return float64(c[i]) / float64(t)
	}
	return 0
}

// Result is everything one fleet replay measures. The measured core is
// logical: a request's response time runs from its trace arrival to the
// completion of its slowest sub-request (plus host-queue delay in
// closed-loop mode), ByBucket classifies logical requests against the
// device page size and sums the flash traffic of every fragment a request
// fanned out to, and the makespan runs to the latest device's idle horizon.
type Result struct {
	Scheme       string `json:"scheme"`
	Layout       Layout `json:"layout"`
	Devices      int    `json:"devices"`
	ChunkSectors int64  `json:"chunk_sectors"`

	sim.Measured

	// SubClasses classifies the dispatched fragments (mirror writes count
	// each copy) against the device page size. Against LogicalClasses it
	// shows the layout's re-fragmentation: a chunk size below the page size
	// converts across-page requests into partial-page fragments and aligned
	// requests into unaligned ones.
	SubClasses ClassCounts `json:"sub_classes"`

	PerDevice []DeviceReport `json:"per_device"`
}

// LogicalClasses counts logical requests per alignment class.
func (r *Result) LogicalClasses() ClassCounts {
	var c ClassCounts
	for _, byClass := range r.ByBucket {
		for class, m := range byClass {
			c[class] += m.Requests
		}
	}
	return c
}

// SubRequests counts the device-local fragments dispatched;
// SubRequests/Requests is the layout's fan-out.
func (r *Result) SubRequests() int64 { return r.SubClasses.Total() }

// Fanout returns dispatched fragments per logical request.
func (r *Result) Fanout() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.SubRequests()) / float64(r.Requests)
}

// DeviceUtilisation returns device d's busy fraction: its summed chip
// service time over chips × measured makespan.
func (r *Result) DeviceUtilisation(d int, chips int) float64 {
	if r.MeasuredSpanMs <= 0 || chips <= 0 || d >= len(r.PerDevice) {
		return 0
	}
	return r.PerDevice[d].BusyMs / (float64(chips) * r.MeasuredSpanMs)
}

// UtilisationSpread returns the min and max device utilisation for a fleet
// of chips-wide devices — the load-balance (straggler) indicator.
func (r *Result) UtilisationSpread(chips int) (min, max float64) {
	for d := range r.PerDevice {
		u := r.DeviceUtilisation(d, chips)
		if d == 0 || u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	return min, max
}

// Counters returns the fleet-wide sum of per-device flash-operation
// counters for the measured phase.
func (r *Result) Counters() ftl.Counters {
	var sum ftl.Counters
	for _, d := range r.PerDevice {
		sum.DataReads += d.Counters.DataReads
		sum.DataWrites += d.Counters.DataWrites
		sum.MapReads += d.Counters.MapReads
		sum.MapWrites += d.Counters.MapWrites
		sum.GCReads += d.Counters.GCReads
		sum.GCWrites += d.Counters.GCWrites
		sum.Erases += d.Counters.Erases
		sum.DRAMAccesses += d.Counters.DRAMAccesses
		sum.GCInvocations += d.Counters.GCInvocations
	}
	return sum
}
