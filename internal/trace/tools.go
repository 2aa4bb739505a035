package trace

import "sort"

// This file holds the trace-composition helpers the facade re-exports:
// time-windowing, concatenation, interleaving and address shifting. All are
// non-destructive (they return fresh slices).

// Window returns the requests with Time in [from, to), rebased so the
// window starts at t=0.
func Window(reqs []Request, from, to float64) []Request {
	var out []Request
	for _, r := range reqs {
		if r.Time >= from && r.Time < to {
			r.Time -= from
			out = append(out, r)
		}
	}
	return out
}

// Concat joins traces back to back in time: each subsequent trace is
// rebased to start right after the previous one ends (plus gap ms).
func Concat(gap float64, traces ...[]Request) []Request {
	var out []Request
	base := 0.0
	for _, tr := range traces {
		var last float64
		for _, r := range tr {
			r.Time += base
			out = append(out, r)
			if r.Time > last {
				last = r.Time
			}
		}
		base = last + gap
	}
	return out
}

// Interleave merges traces by timestamp (each keeps its own timeline),
// producing one stream sorted by arrival time — the multi-tenant view of
// several LUNs sharing a device. The sort is stable so equal timestamps
// keep their input order.
func Interleave(traces ...[]Request) []Request {
	var out []Request
	for _, tr := range traces {
		out = append(out, tr...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// ShiftOffsets adds delta sectors to every request's offset — used to place
// several traces in disjoint regions of one address space.
func ShiftOffsets(reqs []Request, delta int64) []Request {
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		r.Offset += delta
		out[i] = r
	}
	return out
}
