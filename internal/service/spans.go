package service

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Span is one phase of a job's lifecycle — queued, generate, age or restore,
// replay, store — with wall-clock bounds relative to submission and a few
// explanatory attributes (aging key, engine, worker count, fleet layout).
// Spans are the per-job execution trace: they render inline in the job
// status and as a Chrome trace_event document at /api/v1/jobs/{id}/trace, so
// a replay's phase breakdown can be eyeballed in Perfetto next to the
// simulated timeline the replay itself emits.
type Span struct {
	Name    string            `json:"name"`
	StartMs float64           `json:"start_ms"`
	EndMs   float64           `json:"end_ms"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// spanLog collects a job's spans. It is created at submission with the
// "queued" span already open; the job body closes it when it starts running
// and opens one span per phase after that. Reads (status, trace endpoint)
// may race the run, so the log copies under a lock.
type spanLog struct {
	mu   sync.Mutex
	base time.Time
	open Span
	done []Span
}

func newSpanLog(base time.Time) *spanLog {
	return &spanLog{base: base, open: Span{Name: "queued"}}
}

func (l *spanLog) sinceBase() float64 {
	return float64(time.Since(l.base)) / float64(time.Millisecond)
}

// next closes the open span and opens a new one; kv pairs attach to the span
// being closed. An empty name just closes (end of the last phase).
func (l *spanLog) next(name string, kv ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.sinceBase()
	l.open.EndMs = now
	l.attrLocked(kv)
	l.done = append(l.done, l.open)
	l.open = Span{Name: name, StartMs: now}
}

// attr attaches kv pairs to the open span: what a phase learns about itself
// as it starts.
func (l *spanLog) attr(kv ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attrLocked(kv)
}

func (l *spanLog) attrLocked(kv []string) {
	for i := 0; i+1 < len(kv); i += 2 {
		if l.open.Attrs == nil {
			l.open.Attrs = make(map[string]string)
		}
		l.open.Attrs[kv[i]] = kv[i+1]
	}
}

// Spans copies the completed spans.
func (l *spanLog) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, len(l.done))
	copy(out, l.done)
	return out
}

// chromeSpan is one complete ("ph":"X") Chrome trace_event; timestamps are
// microseconds, as the format requires.
type chromeSpan struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeSpans renders a span log as a Chrome trace_event JSON document
// (the object form, so Perfetto and chrome://tracing both load it).
func writeChromeSpans(w http.ResponseWriter, id string, spans []Span) {
	events := make([]chromeSpan, 0, len(spans))
	for _, sp := range spans {
		events = append(events, chromeSpan{
			Name: sp.Name,
			Ph:   "X",
			Ts:   sp.StartMs * 1000,
			Dur:  (sp.EndMs - sp.StartMs) * 1000,
			Pid:  1,
			Tid:  1,
			Args: sp.Attrs,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"job": id},
		"traceEvents":     events,
	})
}
