package main

import (
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public functions (nothing inside internal/ is instrumented). Name
// is "<layer>.<operation>"; Cell is shared by all spans of one (workload,
// scheme, trace or job); Parent indexes the enclosing span, -1 at the root.
type span struct {
	Name    string `json:"name"`
	Cell    string `json:"cell"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// spanRecorder keeps spans in memory until the run ends. All load comes
// from one goroutine, so the open spans form a stack.
type spanRecorder struct {
	base  time.Time
	spans []span
	open  []int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{base: time.Now()} }

func (r *spanRecorder) parent() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// begin opens a span under the innermost open one and returns its closer.
func (r *spanRecorder) begin(name, cell string) func() {
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Cell: cell, Parent: r.parent(), StartNs: int64(time.Since(r.base))})
	r.open = append(r.open, id)
	return func() {
		r.spans[id].EndNs = int64(time.Since(r.base))
		r.open = r.open[:len(r.open)-1]
	}
}

// add records a span whose bounds were measured elsewhere (the daemon's own
// per-job span log) as a child of the innermost open span.
func (r *spanRecorder) add(name, cell string, start, end time.Time) {
	r.spans = append(r.spans, span{Name: name, Cell: cell, Parent: r.parent(),
		StartNs: int64(start.Sub(r.base)), EndNs: int64(end.Sub(r.base))})
}

// selfSeconds sums, per layer, each span's duration minus the part its
// children cover, plus the wall time covered by root spans.
func (r *spanRecorder) selfSeconds() (byLayer map[string]float64, wall float64) {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		} else {
			wall += float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	byLayer = map[string]float64{}
	for i, s := range r.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		byLayer[layer] += float64(self[i]) / 1e9
	}
	return byLayer, wall
}

// seconds sums the duration of every span of the given name.
func (r *spanRecorder) seconds(name string) float64 {
	total := int64(0)
	for _, s := range r.spans {
		if s.Name == name {
			total += s.EndNs - s.StartNs
		}
	}
	return float64(total) / 1e9
}
